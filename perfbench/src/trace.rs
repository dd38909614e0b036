//! The traced run: the same jobs, executed by calling each layer's
//! public functions in the order `Farm` (one worker) and
//! `run_one_with_opts` call them, with a span around every call.
//!
//! Spans live in memory and are written out when the run ends. The
//! per-warp prefetch hooks fire millions of times per pass, so they are
//! not spans: a [`TimedPrefetcher`] around each engine counts calls and
//! sums nanoseconds per job, and the total becomes one aggregated child
//! span of the job's `gpu_sim.run` span.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use caps_gpu_sim::gpu::{Gpu, DEFAULT_MAX_CYCLES};
use caps_gpu_sim::prefetch::{DemandObservation, PrefetchRequest, Prefetcher, PrefetcherFactory};
use caps_gpu_sim::types::{Addr, CtaCoord, CtaSlot, Cycle};
use caps_metrics::cache::CacheTier;
use caps_metrics::{EnergyModel, Engine, FarmJob, ResultCache, RunRecord, Tenancy};
use caps_workloads::Scale;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `gpu_sim.new`.
    pub name: &'static str,
    /// Index of the job in the submitted batch.
    pub job: usize,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, job: usize, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Close span `id`; returns its duration in ns.
    pub fn close(&mut self, id: usize) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Run `f` inside a span; returns its result and duration in ns.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        job: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, job, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Record an aggregated span of `ns` starting where `parent` starts.
    fn aggregate(&mut self, name: &'static str, job: usize, parent: usize, ns: u64) {
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            job,
            start_ns,
            end_ns: start_ns + ns,
            parent: Some(parent),
        });
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Total self time of spans named `name`.
    pub fn self_ns_of(&self, name: &str) -> u64 {
        self.self_ns()
            .iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(ns, _)| ns)
            .sum()
    }

    /// Write every span as one JSON line (`name`, `job`, `start_ns`,
    /// `end_ns`, `self_ns`, `parent`).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, own) in self.spans.iter().zip(own) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"job\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent}}}",
                s.name, s.job, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Call counts and summed host time of one engine's prefetch hooks.
#[derive(Debug, Default)]
pub struct HookCounters {
    on_demand_calls: AtomicU64,
    on_demand_ns: AtomicU64,
    on_l1_miss_calls: AtomicU64,
    on_l1_miss_ns: AtomicU64,
    requests_out: AtomicU64,
}

/// A prefetcher that times the engine it wraps and changes nothing else.
struct TimedPrefetcher {
    inner: Box<dyn Prefetcher>,
    counters: Arc<HookCounters>,
}

impl Prefetcher for TimedPrefetcher {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_demand(&mut self, obs: &DemandObservation<'_>, out: &mut Vec<PrefetchRequest>) {
        let before = out.len();
        let t0 = Instant::now();
        self.inner.on_demand(obs, out);
        let ns = t0.elapsed().as_nanos() as u64;
        // Plain statistics: Relaxed publishes nothing else.
        let c = &self.counters;
        c.on_demand_calls.fetch_add(1, Ordering::Relaxed);
        c.on_demand_ns.fetch_add(ns, Ordering::Relaxed);
        c.requests_out
            .fetch_add((out.len() - before) as u64, Ordering::Relaxed);
    }

    fn on_l1_miss(&mut self, cycle: Cycle, line: Addr, out: &mut Vec<PrefetchRequest>) {
        let before = out.len();
        let t0 = Instant::now();
        self.inner.on_l1_miss(cycle, line, out);
        let ns = t0.elapsed().as_nanos() as u64;
        let c = &self.counters;
        c.on_l1_miss_calls.fetch_add(1, Ordering::Relaxed);
        c.on_l1_miss_ns.fetch_add(ns, Ordering::Relaxed);
        c.requests_out
            .fetch_add((out.len() - before) as u64, Ordering::Relaxed);
    }

    fn on_cta_launch(&mut self, cta_slot: CtaSlot, cta: CtaCoord) {
        self.inner.on_cta_launch(cta_slot, cta);
    }

    fn on_cta_complete(&mut self, cta_slot: CtaSlot) {
        self.inner.on_cta_complete(cta_slot);
    }

    fn table_accesses(&self) -> u64 {
        self.inner.table_accesses()
    }

    fn mispredicts(&self) -> u64 {
        self.inner.mispredicts()
    }
}

fn timed_factory(engine: Engine, counters: Arc<HookCounters>) -> Box<PrefetcherFactory> {
    let inner = engine.factory();
    Box::new(move |sm| {
        Box::new(TimedPrefetcher {
            inner: inner(sm),
            counters: counters.clone(),
        })
    })
}

/// Hook totals of one engine class.
#[derive(Debug, Default, Clone, Copy)]
pub struct HookTotals {
    /// `on_demand` calls.
    pub on_demand_calls: u64,
    /// Host ns inside `on_demand`.
    pub on_demand_ns: u64,
    /// `on_l1_miss` calls.
    pub on_l1_miss_calls: u64,
    /// Host ns inside `on_l1_miss`.
    pub on_l1_miss_ns: u64,
    /// Prefetch requests the hooks emitted.
    pub requests_out: u64,
}

/// Call counts and host time per layer, summed over the traced passes.
#[derive(Debug, Default, Clone)]
pub struct LayerAcc {
    /// `Workload::kernel` calls / ns.
    pub kernel: (u64, u64),
    /// `Gpu::new` calls / ns.
    pub gpu_new: (u64, u64),
    /// ns inside `run_launches` / `run_tenants`, hooks included.
    pub run_ns: u64,
    /// Simulated cycles of the traced simulations.
    pub cycles: u64,
    /// Cycles covered by fast-forward jumps, and the jump count.
    pub skipped: u64,
    /// Fast-forward jumps.
    pub jumps: u64,
    /// Ring growth-valve activations.
    pub ring_grows: u64,
    /// Hook totals of the CAP engine (`caps-core`).
    pub caps: HookTotals,
    /// Hook totals of every other engine: BASE's null prefetcher and the
    /// `caps-prefetchers` baselines.
    pub base: HookTotals,
    /// `FarmJob::digest` calls / ns.
    pub digest: (u64, u64),
    /// `lookup_tiered` calls / ns answered from memory.
    pub lookup_mem: (u64, u64),
    /// `lookup_tiered` calls / ns answered from disk.
    pub lookup_disk: (u64, u64),
    /// `ResultCache::insert` calls / ns.
    pub insert: (u64, u64),
    /// ns of every traced job span.
    pub job_ns: u64,
    /// Records encoded/decoded by the JSON probe, ns each way, bytes.
    pub json: Codec,
    /// Records encoded/decoded as `record` wire lines, ns each way, bytes.
    pub proto: Codec,
}

/// Encode/decode cost of one record format.
#[derive(Debug, Default, Clone, Copy)]
pub struct Codec {
    /// Records measured.
    pub records: u64,
    /// ns encoding.
    pub encode_ns: u64,
    /// ns decoding.
    pub decode_ns: u64,
    /// Encoded bytes.
    pub bytes: u64,
}

fn add(acc: &mut (u64, u64), ns: u64) {
    acc.0 += 1;
    acc.1 += ns;
}

/// Execute one job the way a one-worker `Farm` does — digest, cache
/// lookup, and on a miss `run_one_with_opts` and a cache insert — with a
/// span around each layer call.
pub fn run_job(
    t: &mut Tracer,
    acc: &mut LayerAcc,
    index: usize,
    job: &FarmJob,
    cache: &ResultCache,
) -> RunRecord {
    let root = t.open("job", index, None);
    let (key, ns) = t.span("cache.digest", index, Some(root), || job.digest());
    add(&mut acc.digest, ns);
    let (hit, ns) = t.span("cache.lookup", index, Some(root), || {
        cache.lookup_tiered(key)
    });
    let rec = match hit {
        Some((rec, CacheTier::Memory)) => {
            add(&mut acc.lookup_mem, ns);
            rec
        }
        Some((rec, CacheTier::Disk)) => {
            add(&mut acc.lookup_disk, ns);
            rec
        }
        None => {
            let rec = run_one(t, acc, index, root, job);
            let (_, ns) = t.span("cache.insert", index, Some(root), || {
                cache.insert(key, &rec)
            });
            add(&mut acc.insert, ns);
            rec
        }
    };
    acc.job_ns += t.close(root);
    rec
}

/// `caps_metrics::run_one_with_opts`, layer by layer.
fn run_one(
    t: &mut Tracer,
    acc: &mut LayerAcc,
    index: usize,
    root: usize,
    job: &FarmJob,
) -> RunRecord {
    let spec = &job.spec;
    assert_eq!(
        job.opts,
        caps_metrics::RunOpts::default(),
        "benchmark jobs carry default options"
    );
    let harness = t.open("harness.run_one", index, Some(root));
    let (kernel, ns) = t.span("workloads.kernel", index, Some(harness), || {
        spec.workload.kernel(spec.scale)
    });
    add(&mut acc.kernel, ns);
    let cfg = spec.engine.configure(&spec.base_config);
    let hooks = Arc::new(HookCounters::default());
    let factory = timed_factory(spec.engine, hooks.clone());
    let (mut gpu, ns) = t.span("gpu_sim.new", index, Some(harness), || {
        Gpu::new(cfg, kernel, &*factory)
    });
    add(&mut acc.gpu_new, ns);
    let (stats, per_kernel, run) = match &spec.tenancy {
        Tenancy::Solo => {
            let launches = match spec.scale {
                Scale::Full => spec.workload.launches(),
                Scale::Small => 1,
            };
            let run = t.open("gpu_sim.run", index, Some(harness));
            let stats = gpu.run_launches(launches, DEFAULT_MAX_CYCLES);
            (stats, Vec::new(), run)
        }
        Tenancy::Co {
            partners,
            policy,
            throttle,
        } => {
            let mut kernels = vec![gpu.kernel().clone()];
            for p in partners {
                let (k, ns) = t.span("workloads.kernel", index, Some(harness), || {
                    p.kernel(spec.scale)
                });
                add(&mut acc.kernel, ns);
                kernels.push(k);
            }
            gpu.set_tenant_throttling(*throttle);
            let run = t.open("gpu_sim.run", index, Some(harness));
            let (stats, per_kernel) = gpu.run_tenants(&kernels, *policy, DEFAULT_MAX_CYCLES);
            (stats, per_kernel, run)
        }
    };
    acc.run_ns += t.close(run);
    let h = HookTotals {
        on_demand_calls: hooks.on_demand_calls.load(Ordering::Relaxed),
        on_demand_ns: hooks.on_demand_ns.load(Ordering::Relaxed),
        on_l1_miss_calls: hooks.on_l1_miss_calls.load(Ordering::Relaxed),
        on_l1_miss_ns: hooks.on_l1_miss_ns.load(Ordering::Relaxed),
        requests_out: hooks.requests_out.load(Ordering::Relaxed),
    };
    t.aggregate("prefetch.on_demand", index, run, h.on_demand_ns);
    t.aggregate("prefetch.on_l1_miss", index, run, h.on_l1_miss_ns);
    let class = if spec.engine.uses_cap_tables() {
        &mut acc.caps
    } else {
        &mut acc.base
    };
    class.on_demand_calls += h.on_demand_calls;
    class.on_demand_ns += h.on_demand_ns;
    class.on_l1_miss_calls += h.on_l1_miss_calls;
    class.on_l1_miss_ns += h.on_l1_miss_ns;
    class.requests_out += h.requests_out;

    let (skipped, jumps) = gpu.skip_counters();
    acc.cycles += stats.cycles;
    acc.skipped += skipped;
    acc.jumps += jumps;
    let links = gpu.link_report();
    acc.ring_grows += links.total().grows;
    let energy = EnergyModel::default().evaluate(&stats, spec.engine.uses_cap_tables());
    let rec = RunRecord {
        workload: spec.workload.abbr().to_string(),
        engine: spec.engine.label().to_string(),
        stats,
        energy,
        links,
        per_kernel,
        adapt: gpu.adapt_report(),
    };
    t.close(harness);
    rec
}

/// Time the record formats a record passes through on its way to a
/// caller: the JSON of cache entries and result archives
/// (`record_to_value` + text, and back), and the service's `record`
/// wire line (`Response::to_line` / `parse_line`). Returns the time
/// spent, which the caller keeps out of the traced pass's wall time.
pub fn probe_codecs(
    t: &mut Tracer,
    acc: &mut LayerAcc,
    index: usize,
    rec: &RunRecord,
) -> Result<u64, String> {
    use caps_metrics::{record_from_value, record_to_value};
    use caps_service::Response;
    let t0 = Instant::now();
    let (text, ns) = t.span("json.encode", index, None, || record_to_value(rec).pretty());
    acc.json.encode_ns += ns;
    acc.json.bytes += text.len() as u64;
    let (back, ns) = t.span("json.decode", index, None, || {
        caps_json::Value::parse(&text)
            .map_err(|e| e.to_string())
            .and_then(|v| record_from_value(&v).map_err(|e| e.to_string()))
    });
    acc.json.decode_ns += ns;
    acc.json.records += 1;
    if !crate::golden::same_record(&back.map_err(|e| format!("json probe: {e}"))?, rec) {
        return Err(format!(
            "json probe: {}/{} did not round-trip",
            rec.workload, rec.engine
        ));
    }
    let reply = Response::Record {
        index,
        record: Box::new(rec.clone()),
    };
    let (line, ns) = t.span("service.proto_encode", index, None, || reply.to_line());
    acc.proto.encode_ns += ns;
    acc.proto.bytes += line.len() as u64;
    let (back, ns) = t.span("service.proto_decode", index, None, || {
        Response::parse_line(&line)
    });
    acc.proto.decode_ns += ns;
    acc.proto.records += 1;
    match back {
        Ok(Response::Record { record, .. }) if crate::golden::same_record(&record, rec) => {}
        _ => {
            return Err(format!(
                "proto probe: {}/{} did not round-trip",
                rec.workload, rec.engine
            ))
        }
    }
    Ok(t0.elapsed().as_nanos() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use caps_metrics::{CacheMode, RunSpec};
    use caps_workloads::Workload;

    #[test]
    fn traced_job_matches_the_farm_and_records_its_layers() {
        let cache = ResultCache::new(CacheMode::Off, "unused-cache-dir");
        let job = FarmJob::new(RunSpec::small(Workload::Cnv, Engine::Caps));
        let mut t = Tracer::new();
        let mut acc = LayerAcc::default();
        let traced = run_job(&mut t, &mut acc, 0, &job, &cache);
        let plain = caps_metrics::run_one(&job.spec);
        assert_eq!(traced.stats, plain.stats);
        assert_eq!((acc.kernel.0, acc.gpu_new.0, acc.insert.0), (1, 1, 1));
        assert!(acc.caps.on_demand_calls > 0 && acc.caps.requests_out > 0);
        assert_eq!(acc.base.on_demand_calls, 0);
        assert_eq!(acc.cycles, plain.stats.cycles);

        // Self time: the run span minus its aggregated hook children.
        let own = t.self_ns();
        let run = t
            .spans
            .iter()
            .position(|s| s.name == "gpu_sim.run")
            .unwrap();
        let run_ns = t.spans[run].end_ns - t.spans[run].start_ns;
        let hooks: u64 = t
            .spans
            .iter()
            .filter(|s| s.parent == Some(run))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        assert_eq!(own[run], run_ns - hooks);
        assert_eq!(t.self_ns_of("gpu_sim.run"), own[run]);

        probe_codecs(&mut t, &mut acc, 0, &traced).unwrap();
        assert_eq!((acc.json.records, acc.proto.records), (1, 1));
        assert!(acc.proto.bytes > 0 && acc.json.bytes > 0);
    }

    #[test]
    fn co_runs_trace_partner_kernels() {
        let cache = ResultCache::new(CacheMode::Off, "unused-cache-dir");
        let job = FarmJob::new(
            RunSpec::small(Workload::Scn, Engine::Baseline)
                .co_resident(vec![Workload::Mrq], caps_metrics::Partitioning::Shared),
        );
        let mut acc = LayerAcc::default();
        let traced = run_job(&mut Tracer::new(), &mut acc, 0, &job, &cache);
        let plain = caps_metrics::run_one(&job.spec);
        assert_eq!(traced.stats, plain.stats);
        assert_eq!(traced.per_kernel, plain.per_kernel);
        assert_eq!(acc.kernel.0, 2);
        assert!(acc.base.on_demand_calls > 0);
    }
}
