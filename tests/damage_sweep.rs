//! Damaged files in either on-disk store — compiled-program recordings
//! (`feather-program v4`) and the co-search cache (`feather-cosearch-cache
//! v2`), both sealed by [`feather_arch::codec`] — load nothing or load what
//! was saved: never a panic, never something else. One sweep drives both
//! stores through their public load functions. `FEATHER_FULL=1` (the weekly
//! CI job) sweeps the benchmark's Model A instead of the small residual
//! graph.

use std::path::PathBuf;

use feather::{FeatherConfig, GraphSession};
use feather_arch::graph::{resnet50_graph_scaled, Graph};
use feather_arch::models::Network;
use feather_arch::workload::ConvLayer;
use layoutloop::{plan_network, ArchSpec, CoSearchCache, MapperConfig};

fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("feather-damage-{}-{tag}", std::process::id()))
}

/// Every byte of `saved` replaced by a bit flip (the next digit or letter),
/// a separator, an escape and a byte that leaves the file no longer UTF-8,
/// and every truncation: `load` — what the store makes of a file holding
/// these bytes, `None` when it loads nothing — must find nothing or what
/// `saved` itself loads.
fn damage_sweep(saved: &[u8], load: impl Fn(&[u8]) -> Option<String>) {
    let original = load(saved).expect("the saved file loads");
    let check = |damaged: &[u8], what: String| {
        let loaded = load(damaged);
        assert!(
            loaded.is_none() || loaded.as_ref() == Some(&original),
            "{what} loads something else"
        );
    };
    for at in 0..saved.len() {
        for new in [saved[at] ^ 1, b' ', b'%', 0xC3] {
            let mut damaged = saved.to_vec();
            damaged[at] = new;
            check(&damaged, format!("byte {at} -> {new:#04x}"));
        }
        check(&saved[..at], format!("cut at {at}"));
    }
}

/// stem → (1×1 main ‖ 1×1 projection) → add → 1×1 head: every record kind
/// of a recording, a parked shortcut.
fn residual_graph() -> Graph {
    let mut g = Graph::new("damage_residual", [1, 4, 4, 4]);
    let stem = ConvLayer::new(1, 4, 4, 4, 4, 3, 3)
        .with_padding(1)
        .with_name("stem");
    let stem = g.conv(g.input(), stem).unwrap();
    let main = ConvLayer::new(1, 8, 4, 4, 4, 1, 1).with_name("main");
    let main = g.conv(stem, main).unwrap();
    let proj = ConvLayer::new(1, 8, 4, 4, 4, 1, 1).with_name("proj");
    let proj = g.conv(stem, proj).unwrap();
    let joined = g.add(main, proj, "add").unwrap();
    let head = ConvLayer::new(1, 4, 8, 4, 4, 1, 1).with_name("head");
    g.conv(joined, head).unwrap();
    g
}

#[test]
fn a_damaged_program_artifact_loads_nothing_or_the_original() {
    let full = std::env::var("FEATHER_FULL").is_ok_and(|v| v == "1");
    let session = if full {
        GraphSession::auto(FeatherConfig::new(8, 16), &resnet50_graph_scaled(16, 16))
    } else {
        GraphSession::auto(FeatherConfig::new(4, 8), &residual_graph())
    }
    .unwrap();
    let path = scratch_path("program");
    session.compile().unwrap().save_to(&path).unwrap();
    let saved = std::fs::read(&path).unwrap();
    damage_sweep(&saved, |bytes| {
        std::fs::write(&path, bytes).unwrap();
        Some(session.load_program(&path)?.dump())
    });
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_damaged_cosearch_cache_loads_nothing_or_the_original() {
    // A fixed-layout architecture: one table of one layout, small enough to
    // damage exhaustively.
    let arch = ArchSpec::sigma_like_fixed_layout(4, 4, "HWC_C4");
    let layer = ConvLayer::new(1, 4, 4, 4, 4, 1, 1).with_name("tiny");
    let net = Network::new("tiny", vec![layer.into()]);
    let mut cache = CoSearchCache::new();
    plan_network(&arch, &net, &MapperConfig::fast(), 0, &mut cache).unwrap();
    let (path, resaved) = (scratch_path("cache"), scratch_path("cache-resaved"));
    cache.save_to(&path).unwrap();
    let saved = std::fs::read(&path).unwrap();
    damage_sweep(&saved, |bytes| {
        std::fs::write(&path, bytes).unwrap();
        let loaded = CoSearchCache::load_from(&path).unwrap();
        // An empty cache is what a file that is not one loads as; what a
        // cache holds is what it saves.
        (loaded.table_count() > 0).then(|| {
            loaded.save_to(&resaved).unwrap();
            std::fs::read_to_string(&resaved).unwrap()
        })
    });
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&resaved).ok();
}
