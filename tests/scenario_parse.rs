//! The scenario language's failure modes: every malformed file must be
//! rejected with an error carrying the line/column it came from and a
//! message naming the offending construct. A config language that
//! silently ignores typos ("deauht = true") is worse than no config
//! language — these tests pin the loud path.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rogue_scenario::{apply_override, load_source, parse, parse_scenario};

/// A minimal valid scenario all the malformed variants derive from.
const VALID: &str = r#"
name = "parse-suite"
seed = 7
duration = "5s"

[[ap]]
ssid = "NET"
bssid = "aa:bb:cc:dd:00:01"
channel = 6
pos = [10.0, 0.0]

[[server]]
name = "www"
ip = "10.0.0.10"
content = "news"

[[population]]
name = "crowd"
count = 4
ssid = "NET"
area = [0.0, 0.0, 50.0, 20.0]

[[population.traffic]]
kind = "http"
server = "www"
"#;

fn err_of(src: &str) -> rogue_scenario::Error {
    parse_scenario(src).expect_err("malformed file must be rejected")
}

#[test]
fn the_baseline_file_is_valid() {
    let sc = parse_scenario(VALID).unwrap();
    assert_eq!(sc.name, "parse-suite");
    assert_eq!(sc.populations[0].count, 4);
}

#[test]
fn unknown_keys_are_rejected_with_position() {
    // Typo'd extra key inside [[ap]] — lands on line 10 of this variant.
    let src = VALID.replace("channel = 6", "channel = 6\nchanel = 11");
    let err = err_of(&src);
    assert!(err.msg.contains("unknown key `chanel`"), "{err}");
    assert_eq!(err.span.line, 10, "{err}");
    assert!(err.span.col > 1, "{err}");

    // Dropping a required key is caught too, named and positioned.
    let err = err_of(&VALID.replace("channel = 6\n", ""));
    assert!(err.msg.contains("missing required key `channel`"), "{err}");
    assert_eq!(err.span.line, 6, "the [[ap]] header's line: {err}");

    // Unknown key appended to the trailing traffic entry.
    let err = err_of(&format!("{VALID}burst = true\n"));
    assert!(err.msg.contains("unknown key `burst`"), "{err}");

    // Unknown key in a fresh top-level section.
    let err = err_of(&format!("{VALID}\n[wids]\nsensitivity = 3\n"));
    assert!(err.msg.contains("unknown key `sensitivity`"), "{err}");
}

#[test]
fn bad_macs_are_rejected() {
    let src = VALID.replace("aa:bb:cc:dd:00:01", "aa:bb:cc:dd:00");
    let err = err_of(&src);
    assert!(err.msg.contains("invalid MAC"), "{err}");
    assert_eq!(err.span.line, 8, "{err}");

    let src = VALID.replace("aa:bb:cc:dd:00:01", "not-a-mac");
    assert!(err_of(&src).msg.contains("invalid MAC"));
}

#[test]
fn bad_ips_are_rejected() {
    let src = VALID.replace("\"10.0.0.10\"", "\"10.0.0.256\"");
    let err = err_of(&src);
    assert!(err.msg.contains("invalid IPv4"), "{err}");
    assert_eq!(err.span.line, 14, "{err}");

    let src = VALID.replace("\"10.0.0.10\"", "\"gateway\"");
    assert!(err_of(&src).msg.contains("invalid IPv4"));
}

#[test]
fn out_of_range_channels_are_rejected() {
    for bad in ["0", "15", "-3"] {
        let src = VALID.replace("channel = 6", &format!("channel = {bad}"));
        let err = err_of(&src);
        assert!(err.msg.contains("out of range"), "{bad}: {err}");
        assert_eq!(err.span.line, 9, "{err}");
    }
}

#[test]
fn bad_durations_are_rejected() {
    for bad in ["\"5\"", "\"fast\"", "\"-2s\"", "\"1.2.3s\""] {
        let src = VALID.replace("\"5s\"", bad);
        let err = err_of(&src);
        assert_eq!(err.span.line, 4, "{bad}: {err}");
    }
}

#[test]
fn toml_level_errors_carry_position() {
    // Missing `=`.
    let err = err_of("name \"x\"\n");
    assert!(err.msg.contains("expected `=`"), "{err}");
    assert_eq!(err.span.line, 1);

    // Duplicate key.
    let err = err_of("name = \"a\"\nname = \"b\"\n");
    assert!(err.msg.contains("duplicate key"), "{err}");
    assert_eq!(err.span.line, 2);

    // Unterminated string.
    let err = err_of("name = \"open\n");
    assert!(err.msg.contains("unterminated"), "{err}");

    // Redefined plain table.
    let err = err_of("name = \"x\"\n[wids]\n[wids]\n");
    assert!(err.msg.contains("defined twice"), "{err}");
    assert_eq!(err.span.line, 3);
}

#[test]
fn dangling_references_are_rejected() {
    // Traffic to a server nobody defined.
    let src = VALID.replace("server = \"www\"", "server = \"cdn\"");
    let err = err_of(&src);
    assert!(err.msg.contains("`cdn`"), "{err}");

    // Population joining an SSID no AP advertises.
    let src = VALID.replace("ssid = \"NET\"\narea", "ssid = \"GHOST\"\narea");
    let err = err_of(&src);
    assert!(err.msg.contains("`GHOST`"), "{err}");

    // Rogue cloning an unknown AP.
    let src = format!("{VALID}\n[[rogue]]\nclone_ap = \"GHOST\"\nchannel = 6\npos = [0.0, 0.0]\n");
    let err = err_of(&src);
    assert!(err.msg.contains("rogue clones ssid `GHOST`"), "{err}");
}

#[test]
fn semantic_range_checks_fire() {
    // Zero-count population.
    let err = err_of(&VALID.replace("count = 4", "count = 0"));
    assert!(err.msg.contains("at least 1"), "{err}");

    // Inverted area.
    let err = err_of(&VALID.replace("[0.0, 0.0, 50.0, 20.0]", "[50.0, 0.0, 0.0, 20.0]"));
    assert!(err.msg.contains("x0 < x1"), "{err}");

    // Share outside 0..=1.
    let err = err_of(&format!("{VALID}share = 1.5\n"));
    assert!(err.msg.contains("share"), "{err}");

    // Waypoint speeds must be a positive range.
    let src =
        format!("{VALID}\n[population.mobility]\nmodel = \"waypoint\"\nspeed_mps = [0.0, 2.0]\n");
    let err = err_of(&src);
    assert!(err.msg.contains("speed_mps"), "{err}");

    // UDP payload below the 16-byte floor.
    let src = VALID.replace(
        "kind = \"http\"\nserver = \"www\"",
        "kind = \"udp\"\nserver = \"www\"\nrate_pps = 10\npayload = 8",
    );
    let err = err_of(&src);
    assert!(err.msg.contains("16 bytes"), "{err}");
}

#[test]
fn summary_scenarios_need_something_to_run() {
    let err = err_of("name = \"empty\"\n");
    assert!(err.msg.contains("nothing to run"), "{err}");
}

#[test]
fn override_errors_surface_through_load_source() {
    let err =
        load_source(VALID, &["population.7.count=2".to_string()]).expect_err("bad override index");
    assert!(err.msg.contains("out of range"), "{err}");

    // A well-formed override producing an invalid scenario still fails
    // through the same typed validation.
    let err = load_source(VALID, &["ap.0.channel=99".to_string()])
        .expect_err("overridden channel out of range");
    assert!(err.msg.contains("out of range"), "{err}");
}

#[test]
fn overriding_a_nonexistent_path_is_a_spanned_error() {
    // VALID has no [[wids]]-style `sensor` array: indexing one must die
    // in the override pass with a position, not silently materialize a
    // table for the typed pass to stumble over (or worse, ignore).
    let err = load_source(VALID, &["sensor.0.pos=[1.0, 2.0]".to_string()])
        .expect_err("override into a missing array must fail");
    assert!(err.msg.contains("no `sensor` array"), "{err}");
    assert!(err.span.line > 0, "error must carry a source span: {err}");

    // Dying mid-walk on an existing scalar points at that scalar's
    // actual line in the file.
    let err = load_source(VALID, &["duration.secs=3".to_string()])
        .expect_err("descending through a scalar must fail");
    assert!(err.msg.contains("not a table"), "{err}");
    assert_eq!(err.span.line, 4, "`duration` lives on line 4: {err}");
}

/// A shipped scenario file's text.
fn shipped(file: &str) -> String {
    let path = format!("{}/../../scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(path).expect("scenario file")
}

#[test]
fn zero_lockstep_slices_are_rejected() {
    // A slice that parses to zero nanoseconds would never advance the
    // lockstep loop; both WIDS drivers' sections refuse it, spanned.
    for (file, key) in [
        ("e10_wids.toml", "e10.slice"),
        ("evasion/pulsed_deauth.toml", "e10_evasion.slice"),
    ] {
        let src = shipped(file);
        for zero in ["0s", "0.5ns"] {
            let err = load_source(&src, &[format!("{key}={zero}")])
                .expect_err("a zero slice must be rejected");
            assert!(err.msg.contains("slice must be positive"), "{file}: {err}");
            assert!(err.span.line > 0, "{file}: error must carry a span: {err}");
        }
        load_source(&src, &[format!("{key}=1ns")]).expect("a 1 ns slice is valid");
    }
}

#[test]
fn errors_on_overridden_values_name_the_override() {
    // Written in the file, a bad value points at its own line and column.
    let src = shipped("e10_wids.toml");
    let in_file = src.replacen("slice = \"100ms\"", "slice = \"0s\"", 1);
    let err = load_source(&in_file, &[]).expect_err("a zero slice in the file");
    assert_eq!(err.to_string(), "line 25, col 9: slice must be positive");
    assert_eq!(err.override_spec, None);

    // Given by an override, it names that override (the second of two
    // here), not a position in a file that holds no such value.
    let overrides = ["report.reps=1".to_string(), "e10.slice=0s".to_string()];
    let err = load_source(&src, &overrides).expect_err("a zero slice by override");
    assert_eq!(
        err.to_string(),
        "--override e10.slice=0s: slice must be positive"
    );
    assert_eq!(err.override_spec.as_deref(), Some("e10.slice=0s"));

    // So does an error on one element of an overridden array.
    let spec = r#"e10.scenarios=["clean", "nope"]"#;
    let err = load_source(&src, &[spec.to_string()]).expect_err("an unknown scenario");
    assert_eq!(err.override_spec.as_deref(), Some(spec));
    assert!(err.msg.starts_with("unknown WIDS scenario `nope`"), "{err}");

    // And so does an override that is not `key.path=value` at all.
    for (spec, msg) in [
        ("foo", "override `foo` must look like `key.path=value`"),
        (
            "e10..slice=1s",
            "override path `e10..slice` has an empty segment",
        ),
    ] {
        let overrides = ["report.reps=1".to_string(), spec.to_string()];
        let err = load_source(&src, &overrides).expect_err("a malformed override");
        assert_eq!(err.to_string(), format!("--override {spec}: {msg}"));
        assert_eq!(err.override_spec.as_deref(), Some(spec));
    }
}

#[test]
fn wids_name_lists_must_be_nonempty_and_known() {
    let cases = [
        (
            "e10_wids.toml",
            "e10.scenarios",
            "WIDS scenario",
            "clean, rogue-ap+deauth or arp-spoof",
        ),
        (
            "evasion/pulsed_deauth.toml",
            "e10_evasion.variants",
            "evasion variant",
            "mac-randomizing, karma-cloaked, low-power-stealth or pulsed-deauth",
        ),
    ];
    for (file, key, what, valid) in cases {
        let src = shipped(file);
        // An empty list would score nothing and print a perfect row.
        let err =
            load_source(&src, &[format!("{key}=[]")]).expect_err("an empty list must be rejected");
        assert!(err.msg.contains(&format!("at least one {what}")), "{err}");
        assert!(err.span.line > 0, "{err}");
        // An unknown name is named, with every valid one.
        let err = load_source(&src, &[format!("{key}=[\"nope\"]")])
            .expect_err("an unknown name must be rejected");
        let expected = format!("unknown {what} `nope` (expected {valid})");
        assert_eq!(err.msg, expected);
    }
}

// --- Hostile TOML -----------------------------------------------------
//
// Whatever a scenario author (or an attacker who controls the file)
// writes, the parser and validator answer `Ok` or a spanned `Err`, and
// never panic. Inputs are mutated copies of every shipped scenario file
// and arbitrary `key.path=value` overrides.

/// Every `.toml` under `scenarios/` and `scenarios/evasion/`.
fn shipped_scenarios() -> Vec<(String, String)> {
    let root = format!("{}/../../scenarios", env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in [root.clone(), format!("{root}/evasion")] {
        for entry in std::fs::read_dir(&dir).expect("scenario directory") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_some_and(|e| e == "toml") {
                let text = std::fs::read_to_string(&path).expect("scenario file");
                files.push((path.display().to_string(), text));
            }
        }
    }
    files.sort();
    assert!(files.len() >= 7, "found {} scenario files", files.len());
    files
}

/// SplitMix64 driven by one proptest-sampled seed.
struct Mutator(u64);

impl Mutator {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }

    /// A char boundary of `s`, end included.
    fn boundary(&mut self, s: &str) -> usize {
        let mut cuts: Vec<usize> = s.char_indices().map(|(i, _)| i).collect();
        cuts.push(s.len());
        cuts[self.below(cuts.len())]
    }
}

/// Fragments of TOML syntax, spliced in anywhere.
const TOKENS: &[&str] = &[
    "[",
    "]",
    "[[",
    "]]",
    "=",
    "\"",
    "\"\"\"",
    "'",
    ",",
    ".",
    "#",
    "\n",
    "\t",
    "{",
    "}",
    "\\",
    "\\u",
    "-",
    "+",
    "0x",
    "_",
    "e",
    "[[ap]]\n",
    "[[population]]\n",
    "[population.traffic]\n",
    "[wids]\n",
    "x = 1\n",
    "= =",
    "\u{0}",
    "\u{feff}",
    "é",
    "日本",
    "\u{1F600}",
    "\r",
];

/// Values a hostile author puts where a well-formed one stood.
const VALUES: &[&str] = &[
    "99999999999999999999999",
    "9223372036854775807",
    "-9223372036854775808",
    "18446744073709551616",
    "-1",
    "0",
    "0x",
    "0xFFFFFFFFFFFFFFFFFF",
    "1e400",
    "-1e400",
    "nan",
    "inf",
    "-inf",
    "1.7976931348623157e308",
    "\"-5s\"",
    "\"18446744073709551616ms\"",
    "\"99999999999999h\"",
    "\"1e30s\"",
    "\"nan s\"",
    "\"5\"",
    "\"ms\"",
    "\"0s\"",
    "\"aa:bb:cc:dd:ee\"",
    "\"zz:bb:cc:dd:ee:ff\"",
    "\"aa:bb:cc:dd:ee:ff:00\"",
    "\"ff:ff:ff:ff:ff:ff\"",
    "\"256.0.0.1\"",
    "\"10.0.0\"",
    "\"::1\"",
    "\"10.0.0.1/33\"",
    "\"ñandú\"",
    "\"日本語\"",
    "\"\u{1F600}\"",
    "\"\"",
    "[]",
    "[[]]",
    "[1e308, -1e308]",
    "[nan, inf]",
    "[-1.0, -1.0, -1.0, -1.0]",
    "[0.0, 0.0, 0.0, 0.0]",
    "true",
    "{}",
];

/// Apply one random mutation to `src`: a token insert, a span deletion,
/// a truncation, or a value swapped for a hostile one.
fn mutate(src: &str, m: &mut Mutator) -> String {
    let mut s = src.to_string();
    match m.below(4) {
        0 => {
            let at = m.boundary(&s);
            s.insert_str(at, m.pick(TOKENS));
        }
        1 => {
            let a = m.boundary(&s);
            let b = m.boundary(&s);
            let (a, b) = (a.min(b), a.max(b));
            s.replace_range(a..b, "");
        }
        2 => {
            let at = m.boundary(&s);
            s.truncate(at);
        }
        _ => {
            let values: Vec<usize> = s.match_indices('=').map(|(i, _)| i + 1).collect();
            if let Some(&at) = values.get(m.below(values.len().max(1))) {
                let end = s[at..].find('\n').map_or(s.len(), |n| at + n);
                let value = format!(" {}", m.pick(VALUES));
                s.replace_range(at..end, &value);
            }
        }
    }
    s
}

/// `Ok`, or an `Err` whose span lies inside the source (line ≤ its line
/// count + 1, both coordinates 1-based).
fn check_span<T>(
    what: &str,
    src: &str,
    result: Result<T, rogue_scenario::Error>,
) -> Result<(), TestCaseError> {
    if let Err(err) = result {
        let lines = src.lines().count() as u32;
        prop_assert!(
            err.span.line >= 1 && err.span.col >= 1 && err.span.line <= lines + 1,
            "{what}: span {} outside a {lines}-line source: {err}",
            err.span
        );
    }
    Ok(())
}

/// [`check_span`] for one `apply_override` call: an error on the
/// override itself sits on line 0, column 1 (the first of a list of
/// one), where `load_source` names the override instead.
fn check_override_span(
    what: &str,
    src: &str,
    result: Result<(), rogue_scenario::Error>,
) -> Result<(), TestCaseError> {
    match result {
        Err(err) if err.span.line == 0 => {
            prop_assert_eq!(err.span.col, 1, "{}: {}", what, err);
            Ok(())
        }
        result => check_span(what, src, result),
    }
}

/// Key paths that exist in `src` (`section.key` and `array.N.key`),
/// plus a few that do not.
fn key_paths(src: &str) -> Vec<String> {
    let mut paths = vec![
        "name".to_string(),
        "nope".to_string(),
        "ap.0.channel".to_string(),
        "ap.99999999999999999999.ssid".to_string(),
        "population.0.traffic.0.kind".to_string(),
        "wids.channels".to_string(),
    ];
    let mut section = String::new();
    for line in src.lines() {
        let line = line.trim();
        if let Some(h) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            section = format!("{h}.0.");
        } else if let Some(h) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = format!("{h}.");
        } else if let Some((key, _)) = line.split_once('=') {
            paths.push(format!("{section}{}", key.trim()));
        }
    }
    paths
}

proptest! {
    /// Mutated scenario files load or fail with an in-range span.
    #[test]
    fn mutated_scenarios_never_panic(seed in any::<u64>()) {
        let mut m = Mutator(seed);
        for (name, text) in shipped_scenarios() {
            for _ in 0..4 {
                let mut src = text.clone();
                for _ in 0..1 + m.below(3) {
                    src = mutate(&src, &mut m);
                }
                check_span(&name, &src, load_source(&src, &[]))?;
            }
        }
    }

    /// Arbitrary `key.path=value` overrides, on real and invented paths,
    /// applied to every shipped file directly and through `load_source`.
    #[test]
    fn hostile_overrides_never_panic(seed in any::<u64>()) {
        let mut m = Mutator(seed);
        for (name, text) in shipped_scenarios() {
            let paths = key_paths(&text);
            for _ in 0..4 {
                let path = &paths[m.below(paths.len())];
                let value = m.pick(VALUES);
                let spec = match m.below(4) {
                    0 => format!("{path}={value}"),
                    1 => mutate(&format!("{path}={value}"), &mut m),
                    2 => format!("{path}.{}={value}", m.pick(&["0", "x", "", "1.2"])),
                    _ => (0..m.below(24))
                        .map(|_| char::from_u32(m.next() as u32 % 0x800).unwrap_or('='))
                        .collect(),
                };
                let mut root = parse(&text).expect("shipped scenario parses");
                check_override_span(&name, &text, apply_override(&mut root, &spec))?;
                check_span(&name, &text, load_source(&text, &[spec]))?;
            }
        }
    }
}
