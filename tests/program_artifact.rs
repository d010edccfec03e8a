//! Hostile and damaged program artifacts: whatever is on disk,
//! [`feather::Program::load_from`] either returns the program that was saved
//! or `None` — never a panic, never a different valid program, and never a
//! program whose replay would index out of range.
//!
//! The checksum catches accidents; the hand-built artifacts here carry a
//! *recomputed* checksum, so they reach the content validation behind it:
//! indexes past their tables, route streams that do not fit their blocks or
//! the folded route table, requests the router would choke on or whose
//! groups do not fold to the column runs replay drains, impossible fabrics. `FEATHER_FULL=1` (the weekly CI job) runs the byte-mutation
//! sweep over the benchmark's Model A instead of the small residual graph.

use std::path::PathBuf;

use feather::{FeatherConfig, GraphSession, Program, ProgramSession};
use feather_arch::graph::{resnet50_graph_scaled, Graph};
use feather_arch::tensor::Tensor4;
use feather_arch::workload::ConvLayer;
use proptest::prelude::*;

/// stem → (1×1 main ‖ 1×1 projection) → add → 3×3 → 1×1 head: every op
/// family, a parked shortcut, a two-layer segment.
fn residual_graph() -> Graph {
    let mut g = Graph::new("artifact_residual", [1, 4, 6, 6]);
    let stem = g
        .conv(
            g.input(),
            ConvLayer::new(1, 4, 4, 6, 6, 3, 3)
                .with_padding(1)
                .with_name("stem"),
        )
        .unwrap();
    let main = g
        .conv(stem, ConvLayer::new(1, 8, 4, 6, 6, 1, 1).with_name("main"))
        .unwrap();
    let proj = g
        .conv(stem, ConvLayer::new(1, 8, 4, 6, 6, 1, 1).with_name("proj"))
        .unwrap();
    let joined = g.add(main, proj, "add").unwrap();
    let tail = g
        .conv(
            joined,
            ConvLayer::new(1, 8, 8, 6, 6, 3, 3)
                .with_padding(1)
                .with_name("tail"),
        )
        .unwrap();
    g.conv(tail, ConvLayer::new(1, 4, 8, 6, 6, 1, 1).with_name("head"))
        .unwrap();
    g
}

fn compiled(graph: &Graph, config: FeatherConfig) -> Program {
    GraphSession::auto(config, graph)
        .unwrap()
        .compile()
        .unwrap()
}

fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "feather-artifact-{}-{tag}.program",
        std::process::id()
    ))
}

/// The saved text of `program`.
fn saved(program: &Program, tag: &str) -> String {
    let path = scratch_path(tag);
    program.save_to(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    text
}

/// Loads `bytes` as an artifact file.
fn load(bytes: &[u8], tag: &str) -> Option<Program> {
    let path = scratch_path(tag);
    std::fs::write(&path, bytes).unwrap();
    let loaded = Program::load_from(&path);
    std::fs::remove_file(&path).ok();
    loaded
}

/// FNV-1a 64 — the artifact's whole-file checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `text` with its body rewritten by `edit` and the checksum recomputed —
/// what an attacker, or a buggy writer, would produce.
fn resealed(text: &str, edit: impl FnOnce(&str) -> String) -> String {
    let body = edit(&text[..text.rfind("checksum ").unwrap()]);
    format!("{body}checksum {:016x}\n", fnv1a64(body.as_bytes()))
}

/// `body` with the first line starting with `prefix` replaced by `line`
/// (dropped when `line` is empty).
fn with_line(body: &str, prefix: &str, line: &str) -> String {
    let mut hit = false;
    let mut out = String::new();
    for old in body.lines() {
        if !hit && old.starts_with(prefix) {
            hit = true;
            if line.is_empty() {
                continue;
            }
            out.push_str(line);
        } else {
            out.push_str(old);
        }
        out.push('\n');
    }
    assert!(hit, "no line starts with `{prefix}`");
    out
}

#[test]
fn resealing_an_untouched_artifact_loads_the_same_program() {
    let program = compiled(&residual_graph(), FeatherConfig::new(4, 8));
    let text = saved(&program, "control");
    assert_eq!(resealed(&text, str::to_string), text);
    let loaded = load(text.as_bytes(), "control").expect("pristine artifact loads");
    assert_eq!(loaded.dump(), program.dump());
    assert_eq!(loaded.cost(), program.cost());
}

#[test]
fn checksum_valid_artifacts_with_bad_contents_are_corrupt_not_panics() {
    let program = compiled(&residual_graph(), FeatherConfig::new(4, 8));
    let text = saved(&program, "hostile");
    // (what is wrong, the line it replaces, the replacement)
    let edits: &[(&str, &str, &str)] = &[
        ("op names a segment past the table", "op fire seg=0", "op fire seg=99 layer=0"),
        ("op names a layer past the segment", "op fire seg=0", "op fire seg=0 layer=9"),
        ("op names a join past the table", "op join", "op join join=7"),
        ("park names a tensor past the table", "op park", "op park t=99"),
        ("unpark names a tensor past the table", "op unpark", "op unpark t=99 free=1"),
        ("unpark of a tensor that is not parked", "op unpark", "op unpark t=5 free=1"),
        ("fire outside its segment's stage", "op stage", "op swap seg=0"),
        ("drain of another segment", "op drain seg=0", "op drain seg=1"),
        ("join output slot out of range", "join name=add", "join name=add out=99 a=queue b=fresh_move gout=0"),
        ("segment output slot out of range", "segment in=0", "segment in=0 out=99 gin=1 gout=0"),
        ("graph input slot out of range", "meta ", "meta name=x rows=4 cols=8 stab=65536 strb=16384 batch=1 shift=6 zero=0 fp=0000000000000000 input=99"),
        ("fabric without rows", "meta ", "meta name=x rows=0 cols=8 stab=65536 strb=16384 batch=1 shift=6 zero=0 fp=0000000000000000 input=0"),
        ("fabric width not a power of two", "meta ", "meta name=x rows=4 cols=6 stab=65536 strb=16384 batch=1 shift=6 zero=0 fp=0000000000000000 input=0"),
        ("block starts past the stream", "blocks seg=1 layer=0", "blocks seg=1 layer=0 0 100000"),
        ("block table of the wrong length", "blocks seg=1 layer=0", "blocks seg=1 layer=0 0"),
        ("stream too short for its block", "stream seg=0 layer=0", "stream seg=0 layer=0 0 1"),
        ("stream names a slot past the route table", "stream seg=0 layer=0", "stream seg=0 layer=0 9999x144"),
        ("stream names a pass of another shape", "stream seg=3 layer=1", "stream seg=3 layer=1 1x144"),
        ("run-length bomb", "stream seg=0 layer=0", "stream seg=0 layer=0 0x99999999999999"),
        ("route group without a destination", "route c=4", "route c=4 groups=0,0,0,0,1,1,1,1 dests=0:0"),
        ("route destination without a group", "route c=4", "route c=4 groups=0,0,0,0,-,-,-,- dests=0:0,1:1"),
        ("route wider than the fabric", "route c=4", "route c=4 groups=0,0,0,0,-,-,-,-,-,-,-,-,-,-,-,- dests=0:0"),
        ("route destination past the fabric", "route c=4", "route c=4 groups=0,0,0,0,-,-,-,- dests=0:64"),
        ("route with zero c_cols", "route c=4", "route c=0 groups=0,0,0,0,-,-,-,- dests=0:0"),
        ("route whose group is not one run of columns", "route c=4", "route c=4 groups=0,-,0,-,-,-,-,- dests=0:0"),
        ("route draining fewer columns than its tile fills", "route c=4", "route c=4 groups=0,0,0,-,-,-,-,- dests=0:0"),
        ("layer without a cost line", "cost seg=0 layer=0", ""),
        ("cost line with a missing counter", "cost seg=0 layer=0", "cost seg=0 layer=0 core=1,2,3 iact=0,0,0,0,0,0 oact=0,0,0,0,0,0"),
        ("mapping with a zero factor", "layer seg=0", "layer seg=0 name=stem conv=1,4,4,6,6,3,3,1,1,standard map=0,4,2 iact=HWC_C4 oact=PQM_M4 wsrc=n0"),
        ("mapping wider than the fabric", "layer seg=0", "layer seg=0 name=stem conv=1,4,4,6,6,3,3,1,1,standard map=4,4,64 iact=HWC_C4 oact=PQM_M4 wsrc=n0"),
        ("layer with a zero extent", "layer seg=0", "layer seg=0 name=stem conv=1,4,4,0,6,3,3,1,1,standard map=4,4,2 iact=HWC_C4 oact=PQM_M4 wsrc=n0"),
        ("layer of absurd size", "layer seg=0", "layer seg=0 name=stem conv=1,4,4,99999999999,99999999999,3,3,1,1,standard map=4,4,2 iact=HWC_C4 oact=PQM_M4 wsrc=n0"),
        ("layers that do not chain", "layer seg=3 name=head", "layer seg=3 name=head conv=1,4,8,9,9,1,1,1,0,pointwise map=4,8,1 iact=HWC_C8 oact=MPQ_Q6 wsrc=n5"),
        ("tensor of absurd size", "tensor id=1", "tensor id=1 shape=99999999999,99999999999,6,6"),
    ];
    for (what, prefix, line) in edits {
        let hostile = resealed(&text, |body| with_line(body, prefix, line));
        assert_ne!(hostile, text, "{what}: the edit changed nothing");
        assert!(
            load(hostile.as_bytes(), "hostile").is_none(),
            "{what}: loaded as a valid program"
        );
    }
}

/// What the validation is for: a loaded program replays. Damage that keeps
/// the artifact loadable (a cost counter) changes the report, never safety.
#[test]
fn a_resealed_cost_edit_loads_and_replays_with_the_edited_cost() {
    let g = residual_graph();
    let program = compiled(&g, FeatherConfig::new(4, 8));
    let text = saved(&program, "cost-edit");
    let edited = resealed(&text, |body| {
        with_line(
            body,
            "cost seg=0 layer=0",
            "cost seg=0 layer=0 core=1,2,3,4 iact=0,0,0,0,0,0 oact=0,0,0,0,0,0",
        )
    });
    let loaded = load(edited.as_bytes(), "cost-edit").expect("still a consistent program");
    assert_ne!(loaded.cost(), program.cost());
    let iacts = Tensor4::random([1, 4, 6, 6], 3);
    let weights = g.random_weights(4);
    let want = ProgramSession::new(program).run(&iacts, &weights).unwrap();
    let got = ProgramSession::new(loaded).run(&iacts, &weights).unwrap();
    assert_eq!(got.oacts, want.oacts);
}

/// The artifact the mutation sweep damages: the residual graph, or the
/// benchmark's Model A under `FEATHER_FULL=1`.
fn mutation_target() -> Vec<u8> {
    let full = std::env::var("FEATHER_FULL").is_ok_and(|v| v == "1");
    let program = if full {
        compiled(&resnet50_graph_scaled(16, 16), FeatherConfig::new(8, 16))
    } else {
        compiled(&residual_graph(), FeatherConfig::new(4, 8))
    };
    saved(&program, "mutation").into_bytes()
}

/// Every byte of the trailing checksum line, replaced by a digit, a letter
/// of either case, whitespace and a high byte: the line has one spelling.
#[test]
fn no_byte_of_the_checksum_line_has_a_second_spelling() {
    let bytes = mutation_target();
    let line_at = bytes.len() - "checksum 0123456789abcdef\n".len();
    for at in line_at..bytes.len() {
        for new in [b'0', b'7', b'a', b'F', b'c', b' ', b'\n', b'\t', 0xC3] {
            if bytes[at] == new {
                continue;
            }
            let mut mutated = bytes.clone();
            mutated[at] = new;
            assert!(
                load(&mutated, "sumline").is_none(),
                "byte {at} -> {new:#04x} still loads"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Any single-byte mutation of a saved program — anywhere, to anything,
    /// valid UTF-8 or not — loads as corrupt, never as a different valid
    /// program; so does any truncation.
    #[test]
    fn single_byte_mutations_and_truncations_are_corrupt(
        at in 0usize..1_000_000,
        flip in 1u8..=255,
        cut in 0usize..1_000_000,
    ) {
        let bytes = mutation_target();
        let mut mutated = bytes.clone();
        let at = at % bytes.len();
        mutated[at] ^= flip;
        prop_assert!(load(&mutated, "mutated").is_none(), "byte {} ^ {:#04x} still loads", at, flip);
        prop_assert!(load(&bytes[..cut % bytes.len()], "cut").is_none(), "cut at {} still loads", cut % bytes.len());
    }
}
