//! Wavefront mapping of the forest — the mapper's only forest driver.
//!
//! Trees in a forest depend on each other only through leaf depths: a
//! tree whose leaf is another tree's root cannot be mapped (under the
//! depth-aware cost model) until that root's mapped depth is known. The
//! dependencies form a DAG, so the forest *levelizes*: wavefront 0 holds
//! every tree whose leaves are all primary inputs or constants, wavefront
//! `L+1` holds trees whose deepest tree-leaf lives in wavefront `L`.
//! Within one wavefront every tree's leaf depths are already published,
//! so the trees are independent and map concurrently.
//!
//! Scheduling is the adaptive chunked work-stealer of [`crate::sched`]:
//! each wavefront's trees are grouped into contiguous chunks sized from
//! a static DP-work estimate, distributed over the process-wide pool's
//! per-worker deques (idle workers steal from the tail), and helped
//! along by the submitting thread — or, when the wavefront is too small
//! to pay for a hand-off or `jobs = 1`, mapped inline on the calling
//! thread with no pool traffic at all.
//!
//! Results land in a slot-per-tree vector and root depths are published
//! between wavefronts in tree order, so the outcome is bit-identical for
//! any worker count and any chunk policy: the per-tree DP is
//! deterministic given leaf depths, and leaf depths never depend on
//! intra-wavefront completion order.
//!
//! Under every caching mode each chunk consults one sharded
//! [`SharedCache`] spanning the whole run (or the attached warm cache's
//! segment). A hit replays the shape's solution verbatim (trees are
//! canonicalized before mapping), and a lost insert race merely discards
//! a duplicate of an identical solution — so caching never perturbs the
//! bit-identity guarantee.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use chortle_netlist::{Network, NodeId};
use chortle_telemetry::WavefrontStat;

use crate::cache::{SharedCache, SharedFnCache};
use crate::dp::DpScratch;
use crate::map::{stats, FnMeta, MapError, MapOptions, MappedTree};
use crate::sched::{self, Latch, Pool, TreeResult, WaveCtx};
use crate::tree::{Fingerprint, Tree, TreeChild};

/// Maps the forest wavefront by wavefront, recruiting up to
/// `options.jobs` executors per wavefront from the process-wide chunk
/// pool. Produces the same [`MappedTree`] sequence for every `jobs`.
pub(crate) fn map_forest_wavefront(
    normal: &Network,
    trees: Vec<Tree>,
    shapes: &Arc<Vec<Fingerprint>>,
    fn_metas: &Arc<Vec<Option<FnMeta>>>,
    options: &MapOptions,
) -> Result<Vec<MappedTree>, MapError> {
    let mut tree_of_root: HashMap<NodeId, usize> = HashMap::with_capacity(trees.len());
    for (i, tree) in trees.iter().enumerate() {
        tree_of_root.insert(tree.root, i);
    }

    // Levelize. The forest is topologically ordered (leaf trees precede
    // their consumers), so one forward pass suffices.
    let mut level = vec![0u32; trees.len()];
    let mut max_level = 0u32;
    for (i, tree) in trees.iter().enumerate() {
        let mut lv = 0u32;
        for node in &tree.nodes {
            for child in &node.children {
                if let TreeChild::Leaf(sig) = child {
                    if let Some(&dep) = tree_of_root.get(&sig.node()) {
                        lv = lv.max(level[dep] + 1);
                    }
                }
            }
        }
        level[i] = lv;
        max_level = max_level.max(lv);
    }
    let mut waves: Vec<Vec<usize>> = vec![Vec::new(); max_level as usize + 1];
    for (i, &lv) in level.iter().enumerate() {
        waves[lv as usize].push(i);
    }

    // Executors a wavefront can occupy: the requested jobs, bounded by
    // the pool plus this thread. An explicit `--jobs N` is honored even
    // on a small host (the fall-through below still protects small
    // wavefronts); only `--jobs 0` auto-sizing caps at the host. A
    // single executor never touches the pool, so it is never spawned.
    let fanout = match options.jobs {
        0 | 1 => 1,
        jobs => jobs.min(Pool::global().size() + 1),
    };
    // Static per-tree work estimates drive chunk sizing and the inline
    // fall-through; computed once for the whole forest, and only when a
    // wavefront could be pooled at all.
    let est: Vec<u64> = if fanout >= 2 {
        trees
            .iter()
            .map(|t| sched::estimate_tree_work(t, options.k))
            .collect()
    } else {
        Vec::new()
    };
    let trees = Arc::new(trees);

    let mut sols: Vec<Option<TreeResult>> = (0..trees.len()).map(|_| None).collect();
    // Leaf arrival depths, indexed by NodeId: primary inputs and
    // constants stay 0, mapped roots are published between wavefronts
    // in tree order. Same values `crate::map::leaf_arrival` derives for
    // the trace classification, so the two agree on every cache key.
    let mut arrivals: Arc<Vec<u32>> = Arc::new(vec![0u32; normal.len()]);
    // One sharded store per tier spanning every chunk of the run, or
    // the warm cache's segment for these options when a handle is
    // attached.
    let warm = options.warm_cache.as_ref();
    let shared = options.cache.is_enabled().then(|| {
        warm.map_or_else(
            || Arc::new(SharedCache::new()),
            |w| w.segment(options.k, options.objective),
        )
    });
    let shared_fn = options.cache.uses_fn().then(|| {
        warm.map_or_else(
            || Arc::new(SharedFnCache::new()),
            |w| w.fn_segment(options.k, options.objective),
        )
    });
    // Scratch for chunks run on this thread (inline wavefronts and
    // helping); pool workers keep their own thread-persistent arenas.
    let mut inline_scratch = DpScratch::new();

    let telemetry = &options.telemetry;
    let enabled = telemetry.is_enabled();
    let (mut chunks_built, mut steals, mut inline_waves, mut pooled_waves) =
        (0u64, 0u64, 0u64, 0u64);
    for (wi, wave) in waves.iter().enumerate() {
        // Timing is gated on the sink being enabled: the disabled path
        // never touches the clock.
        let wave_start = enabled.then(Instant::now);
        let chunks = if fanout >= 2 {
            sched::build_chunks(wave, &est, options.chunk)
        } else {
            Vec::new()
        };
        let pooled = chunks.len() >= 2
            && wave.iter().map(|&ti| est[ti]).sum::<u64>() >= sched::MIN_POOLED_WAVE_WORK;
        let ctx = Arc::new(WaveCtx {
            trees: Arc::clone(&trees),
            shapes: Arc::clone(shapes),
            arrivals: Arc::clone(&arrivals),
            indices: wave.clone(),
            wave_index: wi,
            k: options.k,
            objective: options.objective,
            cache: shared.as_ref().map(Arc::clone),
            fn_metas: Arc::clone(fn_metas),
            fn_cache: shared_fn.as_ref().map(Arc::clone),
            cancel: options.cancel.clone(),
            // `fanout` executor slots counting this thread (pre-joined):
            // placement below seeds `fanout - 1` deques, and the budget
            // keeps stealing from recruiting a larger crew than --jobs.
            budget: sched::ExecutorBudget::new(fanout),
            telemetry: telemetry.clone(),
            results: Mutex::new((0..wave.len()).map(|_| None).collect()),
            error: Mutex::new(None),
            failed: std::sync::atomic::AtomicBool::new(false),
            steals: std::sync::atomic::AtomicU64::new(0),
            occupancy: Mutex::new(Vec::new()),
        });
        if pooled {
            pooled_waves += 1;
            chunks_built += chunks.len() as u64;
            let pool = Pool::global();
            let latch = Arc::new(Latch::new(chunks.len()));
            pool.submit(&ctx, &latch, &chunks, fanout - 1);
            // Help drain our own wavefront, newest chunk first, then
            // wait for chunks still running on the pool.
            while let Some(task) = pool.grab_wave(&ctx) {
                sched::run_task(task, &mut inline_scratch, 0);
            }
            latch.wait();
            steals += ctx.steals.load(Ordering::Relaxed);
        } else {
            // Inline fall-through: the whole wavefront as one chunk on
            // this thread — no hand-off, no wake-ups.
            inline_waves += 1;
            sched::run_chunk(&ctx, (0, wave.len()), &mut inline_scratch, 0);
        }
        if let Some(e) = ctx.error.lock().expect("wave error slot poisoned").take() {
            // Partial results are dropped with the wavefront.
            return Err(e);
        }
        {
            let mut results = ctx.results.lock().expect("wave results poisoned");
            for (pos, slot) in results.iter_mut().enumerate() {
                sols[wave[pos]] = Some(slot.take().expect("wavefront mapped every tree"));
            }
        }
        if let Some(t0) = wave_start {
            let mut occ = std::mem::take(&mut *ctx.occupancy.lock().expect("occupancy poisoned"));
            occ.sort_by_key(|o| o.worker);
            telemetry.record_wavefront(WavefrontStat {
                index: wi,
                trees: wave.len(),
                workers: occ.len().max(1),
                seconds: t0.elapsed().as_secs_f64(),
                claimed: occ.iter().map(|o| o.claimed).collect(),
                busy_s: occ.iter().map(|o| o.busy_s).collect(),
            });
        }
        // Drop the wavefront context before publishing depths: the
        // arrivals array is then uniquely owned again and `make_mut`
        // updates it in place.
        drop(ctx);

        // Publish this wavefront's root depths, in tree order, before
        // the next wavefront reads them.
        let published = Arc::make_mut(&mut arrivals);
        for &ti in wave {
            let (sol, ..) = sols[ti].as_ref().expect("wavefront mapped every tree");
            published[trees[ti].root.index()] = sol.dp.tree_depth(&trees[ti]);
        }
    }
    if enabled {
        // Schedule echoes: excluded from the any-`jobs`-identical
        // counter contract (see `stats`).
        telemetry.add_counter(stats::SCHED_CHUNKS, chunks_built);
        telemetry.add_counter(stats::SCHED_STEALS, steals);
        telemetry.add_counter(stats::SCHED_INLINE_WAVES, inline_waves);
        telemetry.add_counter(stats::SCHED_POOLED_WAVES, pooled_waves);
    }

    // Every chunk dropped its context before arriving at its latch, so
    // the driver holds the only strong reference by now; the fallback
    // clone only runs if a worker was still tearing down mid-unwind.
    let trees = Arc::try_unwrap(trees).unwrap_or_else(|arc| (*arc).clone());
    Ok(trees
        .into_iter()
        .zip(sols)
        .map(|(tree, sol)| {
            let (sol, key, fn_key) = sol.expect("every wavefront tree mapped");
            MappedTree {
                tree,
                sol,
                key,
                fn_key,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use crate::{map_network, ChunkPolicy, MapOptions};
    use chortle_netlist::{Network, NodeOp, Signal};

    /// A network with a three-level tree dependency chain plus
    /// independent cones, exercising multi-tree wavefronts.
    fn layered_network() -> Network {
        let mut net = Network::new();
        let inputs: Vec<Signal> = (0..8)
            .map(|i| Signal::new(net.add_input(format!("i{i}"))))
            .collect();
        // Two shared gates (roots by fanout) feeding two consumers each.
        let s1 = Signal::new(net.add_gate(NodeOp::And, vec![inputs[0], inputs[1], inputs[2]]));
        let s2 = Signal::new(net.add_gate(NodeOp::Or, vec![inputs[3], inputs[4]]));
        let m1 = Signal::new(net.add_gate(NodeOp::Or, vec![s1, inputs[5]]));
        let m2 = Signal::new(net.add_gate(NodeOp::And, vec![s1, s2, inputs[6]]));
        let top = Signal::new(net.add_gate(NodeOp::Or, vec![m1, m2, inputs[7]]));
        net.add_output("t", top);
        net.add_output("m2", !m2);
        net.add_output("s2", s2);
        net
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        use crate::dp::Objective;
        let net = layered_network();
        for k in 2..=5 {
            for objective in [Objective::Area, Objective::Depth] {
                let opts = MapOptions::builder(k).objective(objective).build().unwrap();
                let seq = map_network(&net, &opts).unwrap();
                for jobs in [2, 3, 8] {
                    let par_opts = MapOptions::builder(k)
                        .objective(objective)
                        .jobs(jobs)
                        .build()
                        .unwrap();
                    let par = map_network(&net, &par_opts).unwrap();
                    assert_eq!(seq.circuit, par.circuit, "k={k} jobs={jobs}");
                    assert_eq!(seq.report, par.report, "k={k} jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn chunk_policies_match_sequential_exactly() {
        let net = layered_network();
        let seq = map_network(&net, &MapOptions::builder(4).build().unwrap()).unwrap();
        for chunk in [
            ChunkPolicy::Auto,
            ChunkPolicy::Fixed(1),
            ChunkPolicy::Fixed(1 << 20),
        ] {
            let opts = MapOptions::builder(4)
                .jobs(4)
                .chunk(chunk)
                .unwrap()
                .build()
                .unwrap();
            let par = map_network(&net, &opts).unwrap();
            assert_eq!(seq.circuit, par.circuit, "{chunk:?}");
            assert_eq!(seq.report, par.report, "{chunk:?}");
        }
    }

    #[test]
    fn jobs_zero_selects_host_parallelism() {
        let opts = MapOptions::builder(4).jobs(0).build().unwrap();
        assert!(opts.jobs >= 1);
        let net = layered_network();
        let seq = map_network(&net, &MapOptions::builder(4).build().unwrap()).unwrap();
        let par = map_network(&net, &opts).unwrap();
        assert_eq!(seq.circuit, par.circuit);
    }
}
