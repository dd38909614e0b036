//! Minimal signal handling for graceful server shutdown, without libc.
//!
//! The server wants "did the operator press Ctrl-C / send SIGTERM?" as a
//! condition a thread can wait for, not an asynchronous handler: an
//! async handler would need a registered restorer trampoline
//! (`rt_sigaction`'s `SA_RESTORER` contract on x86_64) and careful
//! async-signal-safety. Instead the server **blocks** SIGINT and SIGTERM
//! on all threads (signal masks are inherited), and a watcher thread
//! consumes pending ones with `rt_sigtimedwait`, a raw syscall. On
//! non-x86_64-Linux targets both calls are no-ops and shutdown happens
//! via the `shutdown` request only.

use std::time::Duration;

/// SIGINT | SIGTERM as a kernel sigset bitmask (bit `sig-1`).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const MASK: u64 = (1 << (2 - 1)) | (1 << (15 - 1));

/// Block SIGINT/SIGTERM for the calling thread (and every thread it
/// subsequently spawns). Returns `true` on success. Call before
/// spawning workers so the mask is process-wide in practice.
pub fn block_shutdown_signals() -> bool {
    imp::block()
}

/// Wait up to `timeout` for a blocked SIGINT/SIGTERM and consume it.
/// Returns `true` as soon as one is delivered, `false` on timeout.
pub fn wait_shutdown_signal(timeout: Duration) -> bool {
    imp::wait(timeout)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use super::MASK;
    use std::time::Duration;

    /// `rt_sigprocmask(SIG_BLOCK, &mask, NULL, 8)` — raw syscall, no
    /// libc in the workspace; the kernel ABI is stable.
    pub fn block() -> bool {
        let mask = [MASK];
        let ret: i64;
        // SAFETY: rt_sigprocmask reads 8 bytes from `mask`, a live local
        // array, and writes nothing (oldset is NULL); the asm clobbers
        // only the registers declared below.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") 14i64 => ret,   // __NR_rt_sigprocmask
                in("rdi") 0i64,                  // SIG_BLOCK
                in("rsi") mask.as_ptr(),
                in("rdx") 0i64,                  // oldset = NULL
                in("r10") 8i64,                  // sizeof(kernel sigset_t)
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret == 0
    }

    /// `rt_sigtimedwait(&mask, NULL, &timeout, 8)` — returns the signal
    /// number once one of `mask` is pending, else `-EAGAIN` when the
    /// timeout expires (or `-EINTR`).
    pub fn wait(timeout: Duration) -> bool {
        let mask = [MASK];
        // struct timespec { tv_sec, tv_nsec }
        let timespec = [
            timeout.as_secs().min(i64::MAX as u64) as i64,
            i64::from(timeout.subsec_nanos()),
        ];
        let ret: i64;
        // SAFETY: rt_sigtimedwait reads 8 bytes from `mask` and 16 from
        // `timespec`, both live locals, and writes nothing (siginfo is
        // NULL); the asm clobbers only the registers declared below.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") 128i64 => ret,  // __NR_rt_sigtimedwait
                in("rdi") mask.as_ptr(),
                in("rsi") 0i64,                  // siginfo = NULL
                in("rdx") timespec.as_ptr(),
                in("r10") 8i64,                  // sizeof(kernel sigset_t)
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret > 0
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod imp {
    use std::time::Duration;

    pub fn block() -> bool {
        false
    }

    pub fn wait(timeout: Duration) -> bool {
        std::thread::sleep(timeout);
        false
    }
}
