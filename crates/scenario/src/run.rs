//! Running a scenario and rendering its report.
//!
//! Three report kinds:
//!
//! * `summary` — compile onto a world, interleave simulation slices with
//!   mobility ticks and WIDS sensor drains, then print a key/value run
//!   summary;
//! * `e1` / `e10` — hand the file's `[corp]`/`[e1]`/`[e10]` overlays to
//!   the experiment drivers in `rogue-core` and print the same table the
//!   `rogue-bench` harness prints. At the paper defaults the output is
//!   byte-identical to the checked-in report.

use rogue_core::experiments::{e10_evasion, e10_wids, e1_association};
use rogue_core::report::Table;
use rogue_core::scenario::CorpScenarioCfg;
use rogue_dot11::MacEvent;
use rogue_dot11::StaState;
use rogue_services::apps::{BrowserApp, DownloadClient};
use rogue_services::traffic::{PingApp, UdpCbrSource, UdpSink};
use rogue_sim::{SimDuration, SimTime};

use crate::compile::{compile, Compiled};
use crate::spec::{ReportKind, Scenario};
use crate::toml::{parse_value_or_str, Error, Item, Span, Table as TomlTable, Value};

/// Totals a finished summary run reports (also handy for tests).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SummaryStats {
    /// Clients compiled.
    pub clients: usize,
    /// Clients associated when the run ended.
    pub associated_at_end: usize,
    /// Station association events over the run.
    pub associations: usize,
    /// Forced disassociations (deauth/disassoc received).
    pub forced_disassociations: usize,
    /// Mobility walkers.
    pub walkers: usize,
    /// `set_pos` moves applied.
    pub moves: u64,
    /// Browser pages whose body matched.
    pub pages_ok: u64,
    /// Browser pages that came back altered.
    pub pages_tampered: u64,
    /// Browser fetches that failed.
    pub page_failures: u64,
    /// Download workflows that completed and verified.
    pub downloads_ok: u64,
    /// Download workflows that failed or mismatched.
    pub downloads_bad: u64,
    /// UDP datagrams sent by all sources.
    pub udp_sent: u64,
    /// UDP datagrams received by all sinks.
    pub udp_received: u64,
    /// ICMP echoes sent / answered.
    pub pings_sent: u64,
    /// Echo replies received.
    pub pings_answered: u64,
    /// WIDS incidents opened (0 when no `[wids]` section).
    pub wids_incidents: usize,
}

/// A finished summary run: the compiled world plus its totals.
pub struct SummaryRun {
    /// The world and handles, after the run.
    pub compiled: Compiled,
    /// Extracted totals.
    pub stats: SummaryStats,
}

/// One scenario tick ending at `now`: run the world there, move the
/// walkers over `tick`, then drain the WIDS sensors (radio monitors and
/// the span port) into the pipeline and step it. [`run_summary`] calls
/// this once per tick up to the horizon; tests that sample a run between
/// ticks drive the same loop through it.
pub fn run_tick(c: &mut Compiled, now: SimTime, tick: SimDuration) {
    c.world.run_until(now);
    c.mobility.step(now, tick, &mut c.world.medium);
    if let Some(w) = &mut c.wids {
        w.feed(&c.world, now);
    }
}

/// Compile `sc` and run it to its horizon, stepping mobility and the
/// WIDS pipeline on the scenario tick.
pub fn run_summary(sc: &Scenario) -> Result<SummaryRun, Error> {
    let mut c = compile(sc)?;
    let end = SimTime::ZERO + sc.duration;
    let mut now = SimTime::ZERO;
    while now < end {
        now = (now + sc.tick).min(end);
        run_tick(&mut c, now, sc.tick);
    }

    let mut stats = SummaryStats {
        clients: c.clients.len(),
        walkers: c.mobility.len(),
        moves: c.mobility.moves_applied,
        wids_incidents: c.wids.as_ref().map_or(0, |w| w.pipe.incidents().len()),
        ..SummaryStats::default()
    };
    for (_, _, ev) in &c.world.mac_events {
        match ev {
            MacEvent::Associated { .. } => stats.associations += 1,
            MacEvent::Disassociated { forced: true, .. } => stats.forced_disassociations += 1,
            _ => {}
        }
    }
    for cl in &c.clients {
        if c.world.sta_state(cl.node, cl.radio) == StaState::Associated {
            stats.associated_at_end += 1;
        }
        for &a in &cl.browser_apps {
            let b: &BrowserApp = c.world.app(cl.node, a);
            stats.pages_ok += b.pages_ok;
            stats.pages_tampered += b.pages_tampered;
            stats.page_failures += b.failures;
        }
        for &a in &cl.download_apps {
            let d: &DownloadClient = c.world.app(cl.node, a);
            match &d.outcome {
                Some(o) if o.error.is_none() && o.verified => stats.downloads_ok += 1,
                _ => stats.downloads_bad += 1,
            }
        }
        for &a in &cl.udp_source_apps {
            stats.udp_sent += c.world.app::<UdpCbrSource>(cl.node, a).sent;
        }
        for &a in &cl.ping_apps {
            let p: &PingApp = c.world.app(cl.node, a);
            stats.pings_sent += p.sent;
            stats.pings_answered += p.received;
        }
    }
    for srv in &c.servers {
        stats.udp_received += c.world.app::<UdpSink>(srv.node, srv.sink_app).received;
    }
    Ok(SummaryRun { compiled: c, stats })
}

/// Render the summary table for a finished run.
pub fn summary_report(sc: &Scenario, run: &SummaryRun) -> String {
    let s = &run.stats;
    let mut t = Table::new(&["metric", "value"]);
    let mut kv = |k: &str, v: String| t.row(&[k.to_string(), v]);
    kv("scenario", sc.name.clone());
    kv("seed", format!("{:#x}", sc.seed.0));
    kv("duration", format!("{:.1}s", sc.duration.as_secs_f64()));
    kv("clients", s.clients.to_string());
    kv("associated at end", s.associated_at_end.to_string());
    kv("associations", s.associations.to_string());
    kv(
        "forced disassociations",
        s.forced_disassociations.to_string(),
    );
    kv("mobile walkers", s.walkers.to_string());
    kv("waypoint moves applied", s.moves.to_string());
    kv(
        "pages ok / tampered / failed",
        format!(
            "{} / {} / {}",
            s.pages_ok, s.pages_tampered, s.page_failures
        ),
    );
    kv(
        "downloads ok / bad",
        format!("{} / {}", s.downloads_ok, s.downloads_bad),
    );
    kv(
        "udp sent / received",
        format!("{} / {}", s.udp_sent, s.udp_received),
    );
    kv(
        "pings sent / answered",
        format!("{} / {}", s.pings_sent, s.pings_answered),
    );
    kv("rogues", run.compiled.rogues.len().to_string());
    kv("wids incidents", s.wids_incidents.to_string());
    t.render()
}

/// Run `sc` and return its report.
pub fn run_scenario(sc: &Scenario) -> Result<String, Error> {
    match sc.report.kind {
        ReportKind::Summary => {
            let run = run_summary(sc)?;
            Ok(summary_report(sc, &run))
        }
        ReportKind::E1 => {
            let base = sc
                .corp
                .clone()
                .unwrap_or_else(CorpScenarioCfg::paper_attack);
            let params = sc.e1.clone().unwrap_or_default();
            Ok(e1_association::report_body(
                &base,
                &params,
                sc.report.reps,
                sc.seed,
            ))
        }
        ReportKind::E10 => {
            let base = sc
                .corp
                .clone()
                .unwrap_or_else(CorpScenarioCfg::paper_attack);
            let params = sc.e10.clone().unwrap_or_default();
            Ok(e10_wids::report_body(
                &base,
                &params,
                sc.report.reps,
                sc.seed,
            ))
        }
        ReportKind::E10Evasion => {
            let base = sc
                .corp
                .clone()
                .unwrap_or_else(CorpScenarioCfg::paper_attack);
            let params = sc.e10_evasion.clone().unwrap_or_default();
            Ok(e10_evasion::report_body(
                &base,
                &params,
                sc.report.reps,
                sc.seed,
            ))
        }
    }
}

// ---------------------------------------------------------------------
// overrides

/// Apply one `--override path=value` to a parsed root table, before the
/// typed `spec` pass. Path segments are `.`-separated; a numeric segment
/// indexes an array (of tables), e.g. `population.0.count=20`.
///
/// A spec that is not `key.path=value` with non-empty segments fails
/// on the override's own span (below). The walk's failures carry real
/// spans — the source position of the value the walk died at, or of the
/// table that lacked a requested array — so such an error points into
/// the scenario file like any other parse error. Indexing an array that does not exist is an error, never a
/// materialization: inventing `population` as an empty table to satisfy
/// `population.0.count=5` would hand the typed pass a shape it can only
/// misreport. Plain table sections, by contrast, may still be added
/// whole (`wids.channels=[1, 6]` on a file with no `[wids]`).
///
/// The value it writes sits on line 0, which no file position has, in
/// column 1; [`crate::load_source`] numbers each override of its list
/// there, so that a shape error, or a typed-pass error on such a value,
/// names its override.
pub fn apply_override(root: &mut TomlTable, spec: &str) -> Result<(), Error> {
    apply_nth_override(root, spec, 0)
}

/// [`apply_override`] for the `nth` override of a list: its value sits on
/// line 0, which no file position has, in column `nth + 1`, and so does
/// an error on the override's own shape.
pub(crate) fn apply_nth_override(
    root: &mut TomlTable,
    spec: &str,
    nth: usize,
) -> Result<(), Error> {
    let span = Span {
        line: 0,
        col: nth as u32 + 1,
    };
    let Some((path, raw)) = spec.split_once('=') else {
        return Err(Error::at(
            span,
            format!("override `{spec}` must look like `key.path=value`"),
        ));
    };
    let segs: Vec<&str> = path.split('.').collect();
    if segs.iter().any(|s| s.is_empty()) {
        return Err(Error::at(
            span,
            format!("override path `{path}` has an empty segment"),
        ));
    }
    let mut item = parse_value_or_str(raw);
    place(&mut item, span);
    walk_table(root, &segs, item, path)
}

/// Position `item` and every array element in it at `span`.
fn place(item: &mut Item, span: Span) {
    item.span = span;
    if let Value::Array(items) = &mut item.value {
        for i in items {
            place(i, span);
        }
    }
}

/// An error on a value the `nth` of `overrides` wrote names that
/// override, at the start of its text, instead of a file position.
pub(crate) fn name_override(err: Error, overrides: &[String]) -> Error {
    if err.span.line == 0 {
        let nth = (err.span.col as usize).checked_sub(1);
        if let Some(spec) = nth.and_then(|n| overrides.get(n)) {
            return Error {
                span: Span { line: 1, col: 1 },
                override_spec: Some(spec.clone()),
                ..err
            };
        }
    }
    err
}

/// Walk `segs` through a table: the last segment sets (or adds) a leaf;
/// earlier segments descend, materializing missing *table* sections.
fn walk_table(table: &mut TomlTable, segs: &[&str], item: Item, path: &str) -> Result<(), Error> {
    let seg = segs[0];
    if segs.len() == 1 {
        return set_leaf(table, seg, item);
    }
    let slot = match table.entries.iter().position(|(k, _)| k == seg) {
        Some(p) => p,
        None => {
            // A numeric follow-up segment means the override is
            // indexing `seg` as an array — which element would a
            // materialized empty one hold? Fail loudly instead.
            if segs[1].parse::<usize>().is_ok() {
                return Err(Error::at(
                    table.span,
                    format!("override path `{path}`: no `{seg}` array to index in the scenario"),
                ));
            }
            // Materialize an intermediate table so overrides can add
            // whole sections (`wids.pos=[5.0, 5.0]` with no `[wids]`).
            let span = table.span;
            table.entries.push((
                seg.to_string(),
                Item {
                    value: Value::Table(TomlTable {
                        entries: Vec::new(),
                        span,
                    }),
                    span,
                },
            ));
            table.entries.len() - 1
        }
    };
    walk_item(&mut table.entries[slot].1, seg, &segs[1..], item, path)
}

/// Continue below the value named by `taken` (the key or array index
/// the walk just consumed). Empty `segs` replaces the value itself
/// (`population.0=...` swaps a whole array element).
fn walk_item(
    cur: &mut Item,
    taken: &str,
    segs: &[&str],
    item: Item,
    path: &str,
) -> Result<(), Error> {
    if segs.is_empty() {
        *cur = item;
        return Ok(());
    }
    let span = cur.span;
    match &mut cur.value {
        Value::Table(t) => walk_table(t, segs, item, path),
        Value::Array(items) => {
            let idx_seg = segs[0];
            let idx: usize = idx_seg.parse().map_err(|_| {
                Error::at(
                    span,
                    format!(
                        "`{taken}` is an array; the next segment must be an index, got `{idx_seg}`"
                    ),
                )
            })?;
            let len = items.len();
            let elem = items.get_mut(idx).ok_or_else(|| {
                Error::at(
                    span,
                    format!("index {idx} out of range for `{taken}` (len {len})"),
                )
            })?;
            walk_item(elem, idx_seg, &segs[1..], item, path)
        }
        other => Err(Error::at(
            span,
            format!(
                "override path `{path}`: `{taken}` is {}, not a table",
                other.type_name()
            ),
        )),
    }
}

/// Replace or insert the final key.
fn set_leaf(table: &mut TomlTable, key: &str, item: Item) -> Result<(), Error> {
    match table.get_mut(key) {
        Some(existing) => *existing = item,
        None => table.entries.push((key.to_string(), item)),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::from_table;
    use crate::toml::parse;

    const SRC: &str = r#"
name = "ovr"
duration = "5s"

[[ap]]
ssid = "NET"
bssid = "aa:bb:cc:dd:00:01"
channel = 1
pos = [0.0, 0.0]

[[population]]
name = "crowd"
count = 10
ssid = "NET"
area = [0.0, 0.0, 10.0, 10.0]
"#;

    #[test]
    fn overrides_rewrite_scalars_arrays_and_new_sections() {
        let mut root = parse(SRC).unwrap();
        apply_override(&mut root, "duration=2s").unwrap();
        apply_override(&mut root, "population.0.count=3").unwrap();
        apply_override(&mut root, "wids.channels=[1, 6]").unwrap();
        apply_override(&mut root, "seed=77").unwrap();
        let sc = from_table(&root).unwrap();
        assert_eq!(sc.duration, rogue_sim::SimDuration::from_secs(2));
        assert_eq!(sc.populations[0].count, 3);
        assert_eq!(sc.seed.0, 77);
        assert_eq!(sc.wids.as_ref().unwrap().channels, vec![1, 6]);
    }

    #[test]
    fn override_errors_are_descriptive() {
        let mut root = parse(SRC).unwrap();
        let err = apply_override(&mut root, "no-equals").unwrap_err();
        assert!(err.msg.contains("key.path=value"), "{err}");
        let err = apply_override(&mut root, "population.9.count=1").unwrap_err();
        assert!(err.msg.contains("out of range"), "{err}");
        let err = apply_override(&mut root, "population.x.count=1").unwrap_err();
        assert!(err.msg.contains("index"), "{err}");
        let err = apply_override(&mut root, "name.deep=1").unwrap_err();
        assert!(err.msg.contains("not a table"), "{err}");
    }

    #[test]
    fn indexing_a_missing_array_fails_instead_of_materializing() {
        // SRC has no [[server]]. Inventing one as an empty table used
        // to push the failure into the typed pass with a nonsense
        // shape; now the override itself refuses.
        let mut root = parse(SRC).unwrap();
        let err = apply_override(&mut root, "server.0.ip=10.0.0.9").unwrap_err();
        assert!(err.msg.contains("no `server` array"), "{err}");
        // And the document is untouched: the valid file still compiles.
        from_table(&root).unwrap();
    }

    #[test]
    fn overrides_reach_scalar_array_elements() {
        // `area` is an array inside an array-of-tables element — the
        // walk must index through both layers.
        let mut root = parse(SRC).unwrap();
        apply_override(&mut root, "population.0.area.2=99.0").unwrap();
        let sc = from_table(&root).unwrap();
        assert_eq!(sc.populations[0].area[2], 99.0);
    }

    #[test]
    fn override_errors_carry_source_spans() {
        let mut root = parse(SRC).unwrap();
        // `population` appears in SRC at a real line; dying on it must
        // point there, not at 0:0.
        let err = apply_override(&mut root, "population.9.count=1").unwrap_err();
        assert!(err.span.line > 0, "span must come from the source: {err}");
        let err = apply_override(&mut root, "name.deep=1").unwrap_err();
        assert!(err.span.line > 0, "span must come from the source: {err}");
    }
}
