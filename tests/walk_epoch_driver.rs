//! Walk epochs run through the shared epoch driver with a documented
//! contract: windows of up to `super_batch` mini-batches of the sampler's
//! configured batch size, window `exec` walking on RNG stream
//! `epoch * 65_536 + exec`. Driving `run_walk_groups` by hand with that
//! contract must reproduce `run_walk_epoch`'s device accounting bit for
//! bit (the benchmark's output checks rely on the same contract).

use std::sync::Arc;

use gsampler::algos::drivers;
use gsampler::algos::walks::{deepwalk_step, node2vec_step};
use gsampler::algos::Hyper;
use gsampler::core::{compile, OptConfig, Sampler, SamplerConfig};
use gsampler::graphs::Dataset;

fn walk_sampler(node2vec: bool, h: &Hyper) -> Sampler {
    let graph = Arc::new(Dataset::tiny(7).graph);
    let layer = if node2vec {
        node2vec_step(h.p, h.q)
    } else {
        deepwalk_step()
    };
    let config = SamplerConfig {
        opt: OptConfig::all().with_super_batch(2),
        batch_size: h.batch_size,
        ..SamplerConfig::new()
    };
    compile(graph, vec![layer], config).expect("walk sampler compiles")
}

#[test]
fn walk_epoch_matches_hand_driven_windows_bit_for_bit() {
    let h = Hyper::small();
    // Five mini-batches, the last one ragged: windows of 2, 2 and 1.
    let seeds: Vec<u32> = (0..(4 * h.batch_size + 5) as u32).collect();
    for node2vec in [false, true] {
        let sampler = walk_sampler(node2vec, &h);
        assert_eq!(sampler.super_batch_factor(), 2);
        for epoch in [0u64, 3] {
            sampler.reset_stats();
            let groups: Vec<Vec<u32>> = seeds
                .chunks(sampler.config_batch_size())
                .map(<[u32]>::to_vec)
                .collect();
            for (exec, window) in groups.chunks(sampler.super_batch_factor()).enumerate() {
                let stream = epoch * 65_536 + exec as u64;
                let traces = drivers::run_walk_groups(
                    &sampler,
                    window.to_vec(),
                    h.walk_length,
                    node2vec,
                    0.0,
                    stream,
                )
                .expect("hand-driven window");
                assert_eq!(traces.len(), window.len());
            }
            let by_hand = sampler.device().stats();

            let report =
                drivers::run_walk_epoch(&sampler, &seeds, &h, node2vec, epoch).expect("walk epoch");
            let tag = format!("node2vec={node2vec} epoch={epoch}");
            assert_eq!(report.batches, groups.len(), "{tag}: batches");
            assert_eq!(
                report.modeled_time.to_bits(),
                by_hand.total_time.to_bits(),
                "{tag}: modeled time {} vs {}",
                report.modeled_time,
                by_hand.total_time
            );
            assert_eq!(
                report.stats.kernel_launches, by_hand.kernel_launches,
                "{tag}: kernel launches"
            );
            assert_eq!(
                report.stats.total_bytes, by_hand.total_bytes,
                "{tag}: bytes moved"
            );
            assert!(!report.faults.any(), "{tag}: {:?}", report.faults);
        }
    }
}
