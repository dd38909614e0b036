//! The simulation server daemon: bind a Unix socket and serve farm
//! batches until SIGINT/SIGTERM or a client `shutdown` request.
//!
//! ```text
//! simd [--socket PATH] [--jobs N] [--cache-dir PATH] [--cache rw|ro|off]
//!      [--max-cache-mb N]
//! ```
//!
//! The socket path defaults to `.sim-service.sock`. All batches from all
//! clients share one persistent result cache (`--cache-dir`, default
//! `GPU_SIM_CACHE_DIR` / `.sim-cache`), so clients memoize *each
//! other's* work: the second client to sweep an already-covered matrix
//! streams pure cache hits. `--max-cache-mb` (default
//! `GPU_SIM_CACHE_MAX_MB`; 0 = unbounded) bounds the cache directory,
//! evicting the oldest-written entries first.

use caps_bench::cli::Args;
use caps_service::{Server, ServerConfig};

fn main() {
    let args = Args::parse(
        "usage: simd [--socket PATH] [--jobs N] [--cache-dir PATH] [--cache rw|ro|off]\n\
         \x20           [--max-cache-mb N]\n\
         default socket: .sim-service.sock",
        &[],
        &[
            "--socket",
            "--jobs",
            "--cache",
            "--cache-dir",
            "--max-cache-mb",
        ],
    );
    args.positional(0);
    let socket = args.socket();
    let workers = args.jobs();
    let cache = args.cache();
    eprintln!(
        "simd: listening on {} ({workers} workers, cache {} [{}])",
        socket.display(),
        cache.dir().display(),
        match cache.max_bytes() {
            Some(b) => format!("cap {} MiB", b / (1024 * 1024)),
            None => "unbounded".to_string(),
        }
    );
    let server = Server::new(
        ServerConfig {
            socket: socket.clone(),
            workers,
        },
        cache,
    );
    if let Err(e) = server.serve() {
        eprintln!("simd: {}: {e}", socket.display());
        std::process::exit(1);
    }
    eprintln!("simd: shut down cleanly");
}
