//! Hostile program artifacts: whatever is on disk,
//! [`feather::GraphSession::load_program`] either returns the program a fresh
//! compile of that session would — up to the cost counters the file carries
//! — or `None`: never a panic, never another session's program, and never a
//! program whose replay would index out of range.
//!
//! The checksum catches accidents (`tests/damage_sweep.rs`); the hand-built
//! artifacts here are *resealed*, so they reach the content validation
//! behind it: a recording of some other plan, route streams that do not fit
//! their blocks or the folded route table, requests the router would choke
//! on, whose groups do not fold to the column runs replay drains or whose
//! destinations are not the banks the layout names.

use std::path::PathBuf;

use feather::{FeatherConfig, GraphSession, Program, ProgramSession};
use feather_arch::codec::{seal, unseal};
use feather_arch::graph::Graph;
use feather_arch::tensor::Tensor4;
use feather_arch::workload::ConvLayer;
use proptest::prelude::*;

const HEADER: &str = "feather-program v4";

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

fn session() -> GraphSession {
    GraphSession::auto(FeatherConfig::new(4, 8), &residual_graph()).unwrap()
}

fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "feather-artifact-{}-{tag}.program",
        std::process::id()
    ))
}

/// The saved text of `session`'s program.
fn saved(session: &GraphSession, tag: &str) -> String {
    let path = scratch_path(tag);
    session.compile().unwrap().save_to(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    text
}

/// What `session` makes of an artifact file holding `bytes`.
fn load(session: &GraphSession, bytes: &[u8], tag: &str) -> Option<Program> {
    let path = scratch_path(tag);
    std::fs::write(&path, bytes).unwrap();
    let loaded = session.load_program(&path);
    std::fs::remove_file(&path).ok();
    loaded
}

/// `text` with its body rewritten by `edit` and the seal recomputed — what
/// an attacker, or a buggy writer, would produce.
fn resealed(text: &str, edit: impl FnOnce(&str) -> String) -> String {
    seal(HEADER, &edit(unseal(text, HEADER).unwrap()))
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

/// A dump without the lines a recording's cost counters feed.
fn structure(program: &Program) -> String {
    let dump = program.dump();
    let kept = dump
        .lines()
        .filter(|l| !l.trim_start().starts_with("cost "));
    kept.collect::<Vec<_>>().join("\n")
}

#[test]
fn resealing_an_untouched_artifact_loads_the_same_program() {
    let session = session();
    let program = session.compile().unwrap();
    let text = saved(&session, "control");
    assert_eq!(resealed(&text, str::to_string), text);
    let loaded = load(&session, text.as_bytes(), "control").expect("pristine artifact loads");
    assert_eq!(loaded.dump(), program.dump());
    assert_eq!(loaded.cost(), program.cost());
}

#[test]
fn checksum_valid_artifacts_with_bad_contents_are_corrupt_not_panics() {
    let session = session();
    let text = saved(&session, "hostile");
    let v3 = text.replacen(HEADER, "feather-program v3", 1);
    assert!(load(&session, v3.as_bytes(), "hostile").is_none());
    assert!(
        load(
            &session,
            seal("feather-program v3", "").as_bytes(),
            "hostile"
        )
        .is_none(),
        "a stale format is not a recording"
    );
    // (what is wrong, the line it replaces, the replacement)
    #[rustfmt::skip]
    let edits: &[(&str, &str, &str)] = &[
        ("another session's fingerprint", "fp ", "fp 0000000000000000"),
        ("a fingerprint in a second spelling", "fp ", "fp 0x0"),
        ("no fingerprint", "fp ", ""),
        ("a layer record missing", "blocks seg=3 layer=1", ""),
        ("a layer too many", "route c=4", "cost seg=4 layer=0 core=1,2,3,4 iact=0,0,0,0,0,0 oact=0,0,0,0,0,0"),
        ("a layer record of another layer", "stream seg=1 layer=0", "stream seg=2 layer=0 0x144"),
        ("block starts past the stream", "blocks seg=1 layer=0", "blocks seg=1 layer=0 0 100000"),
        ("block table of the wrong length", "blocks seg=1 layer=0", "blocks seg=1 layer=0 0"),
        ("blocks that leave stream entries unread", "blocks seg=0 layer=0", "blocks seg=0 layer=0 1"),
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
    ];
    for (what, prefix, line) in edits {
        let hostile = resealed(&text, |body| with_line(body, prefix, line));
        assert_ne!(hostile, text, "{what}: the edit changed nothing");
        assert!(
            load(&session, hostile.as_bytes(), "hostile").is_none(),
            "{what}: loaded as a valid program"
        );
    }
    // Edits that depend on what the untouched line says.
    let route = unseal(&text, HEADER)
        .unwrap()
        .lines()
        .find(|l| l.starts_with("route c=4 "))
        .unwrap();
    let (head, bank) = route.rsplit_once(':').unwrap();
    let other_bank = (bank.parse::<usize>().unwrap() + 1) % 8;
    for (what, line) in [
        (
            "route into a bank the layout does not name",
            format!("{head}:{other_bank}"),
        ),
        (
            "route issued under another layer's c_cols",
            route.replacen("c=4", "c=8", 1),
        ),
    ] {
        let hostile = resealed(&text, |body| with_line(body, "route c=4 ", &line));
        assert!(
            load(&session, hostile.as_bytes(), "hostile").is_none(),
            "{what}: loaded as a valid program"
        );
    }
    let padded = resealed(&text, |body| format!("{body}{route}\n"));
    assert!(
        load(&session, padded.as_bytes(), "hostile").is_none(),
        "a route no stream uses: loaded as a valid program"
    );
}

/// What the validation is for: a loaded program replays. Damage that keeps
/// the artifact loadable (a cost counter) changes the report, never safety.
#[test]
fn a_resealed_cost_edit_loads_and_replays_with_the_edited_cost() {
    let session = session();
    let program = session.compile().unwrap();
    let text = saved(&session, "cost-edit");
    let edited = resealed(&text, |body| {
        with_line(
            body,
            "cost seg=0 layer=0",
            "cost seg=0 layer=0 core=1,2,3,4 iact=0,0,0,0,0,0 oact=0,0,0,0,0,0",
        )
    });
    let loaded = load(&session, edited.as_bytes(), "cost-edit").expect("still this session's");
    assert_ne!(loaded.cost(), program.cost());
    assert_eq!(structure(&loaded), structure(&program));
    let iacts = Tensor4::random([1, 4, 6, 6], 3);
    let weights = residual_graph().random_weights(4);
    let want = ProgramSession::new(program).run(&iacts, &weights).unwrap();
    let got = ProgramSession::new(loaded).run(&iacts, &weights).unwrap();
    assert_eq!(got.oacts, want.oacts);
}

/// Every byte of the trailing checksum line, replaced by a digit, a letter
/// of either case, whitespace and a high byte: the line has one spelling.
#[test]
fn no_byte_of_the_checksum_line_has_a_second_spelling() {
    let session = session();
    let bytes = saved(&session, "sumline").into_bytes();
    let line_at = bytes.len() - "checksum 0123456789abcdef\n".len();
    for at in line_at..bytes.len() {
        for new in [b'0', b'7', b'a', b'F', b'c', b' ', b'\n', b'\t', 0xC3] {
            if bytes[at] == new {
                continue;
            }
            let mut mutated = bytes.clone();
            mutated[at] = new;
            assert!(
                load(&session, &mutated, "sumline").is_none(),
                "byte {at} -> {new:#04x} still loads"
            );
        }
    }
}

/// What a resealed edit might put where a number stood.
const VALUES: [&str; 12] = [
    "0",
    "1",
    "2",
    "7",
    "8",
    "144",
    "4294967296",
    "99999999999999999999",
    "-",
    "",
    "x",
    "1x3",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `a_resealed_cost_edit_…`, generalised: whatever a resealed recording
    /// says — numbers replaced, records dropped, repeated or swapped — it
    /// loads as nothing, or as the program a fresh compile gives up to the
    /// lines its cost counters feed. A recording decides no structure.
    #[test]
    fn a_resealed_edit_loads_nothing_or_differs_from_a_fresh_compile_only_in_cost(
        picks in proptest::collection::vec(0usize..1_000_000, 1..4),
        kinds in proptest::collection::vec(0usize..6, 3),
        values in proptest::collection::vec(0usize..VALUES.len(), 3),
    ) {
        let session = session();
        let text = saved(&session, "edited");
        let mut lines: Vec<String> = unseal(&text, HEADER).unwrap().lines().map(str::to_string).collect();
        let mut log = Vec::new();
        for ((pick, kind), value) in picks.into_iter().zip(kinds).zip(values) {
            let (at, next) = (pick % lines.len(), (pick + 1) % lines.len());
            log.push((at, kind, VALUES[value]));
            match kind {
                0 => drop(lines.remove(at)),
                1 => lines.insert(at, lines[at].clone()),
                2 => lines.swap(at, next),
                // One of the line's numbers, replaced.
                _ => {
                    let line = &lines[at];
                    let digit = |c: char| c.is_ascii_digit();
                    let starts: Vec<usize> = line
                        .char_indices()
                        .filter(|&(i, c)| digit(c) && !line[..i].ends_with(digit))
                        .map(|(i, _)| i)
                        .collect();
                    let start = starts[pick / 1000 % starts.len()];
                    let len = line[start..].find(|c| !digit(c)).unwrap_or(line.len() - start);
                    lines[at] = format!("{}{}{}", &line[..start], VALUES[value], &line[start + len..]);
                }
            }
            if lines.is_empty() {
                break;
            }
        }
        let edited = seal(HEADER, &lines.iter().map(|l| format!("{l}\n")).collect::<String>());
        if let Some(loaded) = load(&session, edited.as_bytes(), "edited") {
            let fresh = session.compile().unwrap();
            prop_assert_eq!(structure(&loaded), structure(&fresh), "(line, edit, value): {:?}", log);
        }
    }
}
