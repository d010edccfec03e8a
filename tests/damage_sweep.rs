//! A damaged file in the on-disk co-search cache (`feather-cosearch-cache
//! v2`, sealed by [`feather_arch::codec`]) loads nothing or loads what was
//! saved: never a panic, never something else. The sweep drives the store
//! through its public load function.

use std::path::PathBuf;

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
