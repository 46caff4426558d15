//! §3.2 "network promiscuity": mobility hands the client to whatever
//! network is strongest wherever it happens to be.
//!
//! "Mobility implies that a computer will move between administrative
//! domains. … Since a computer will cross domains there may now be
//! incentive for a domain administrator to interfere with a client
//! computer's operation."
//!
//! A victim laptop walks from the corporate AP's coverage toward the
//! attacker's parking-lot rogue; when the valid AP fades, beacon loss
//! triggers a rescan and the (now dominant) rogue wins — no deauth,
//! no cracking of anything beyond the shared WEP key, just movement.

use rogue_core::scenario::{build_corp, victim_mac, CorpScenarioCfg, RogueCfg};
use rogue_dot11::sta::StaState;
use rogue_phy::Pos;
use rogue_sim::{Seed, SimDuration, SimTime};

#[test]
fn walking_out_of_coverage_hands_victim_to_the_rogue() {
    let mut cfg = CorpScenarioCfg::paper_attack();
    // Victim starts right next to the valid AP; the rogue sits 120 m
    // away (outside the office), no deauth.
    cfg.victim_pos = Pos::new(2.0, 0.0);
    cfg.rogue = Some(RogueCfg {
        pos: Pos::new(120.0, 0.0),
        deauth_victim: false,
        ..RogueCfg::default()
    });
    let mut sc = build_corp(&cfg, Seed(3232));

    // Settle: the victim must join the valid AP first (it is ~60 dB
    // stronger at this position).
    sc.world.run_until(SimTime::from_secs(2));
    assert_eq!(
        sc.world.sta_state(sc.victim, sc.victim_radio),
        StaState::Associated
    );
    let gw = sc.gateway.as_ref().map(|g| (g.node, g.rogue_ap_radio));
    let (gw_node, rogue_radio) = gw.expect("rogue deployed");
    assert!(
        !sc.world
            .ap(gw_node, rogue_radio)
            .is_associated(victim_mac()),
        "starts on the valid AP"
    );

    // Walk: 2 m per 100 ms toward the parking lot.
    let radio = sc.world.radio_id(sc.victim, sc.victim_radio);
    let mut x = 2.0;
    let mut now = SimTime::from_secs(2);
    while x < 150.0 {
        x += 2.0;
        sc.world.medium.set_pos(radio, Pos::new(x, 0.0));
        now += SimDuration::from_millis(100);
        sc.world.run_until(now);
    }
    // Dwell at the far end long enough for beacon loss + rescan.
    sc.world.run_until(now + SimDuration::from_secs(5));

    assert!(
        sc.world
            .ap(gw_node, rogue_radio)
            .is_associated(victim_mac()),
        "movement alone must hand the victim to the rogue"
    );
    // And it was a natural (beacon-loss) transition, not a forced one.
    let forced = sc
        .world
        .mac_events
        .iter()
        .filter(|(_, n, e)| {
            *n == sc.victim
                && matches!(
                    e,
                    rogue_dot11::output::MacEvent::Disassociated { forced: true, .. }
                )
        })
        .count();
    assert_eq!(forced, 0, "no deauth was involved");
}

#[test]
fn returning_home_reverses_the_handover() {
    // The §1.2.1 worry completed: "A client compromised elsewhere could
    // then return to the secured institutional wireless network" — here
    // we only verify the radio-level round trip.
    let mut cfg = CorpScenarioCfg::paper_attack();
    cfg.victim_pos = Pos::new(150.0, 0.0); // starts out by the rogue
    cfg.rogue = Some(RogueCfg {
        pos: Pos::new(200.0, 0.0), // parking lot, well clear of the office
        deauth_victim: false,
        ..RogueCfg::default()
    });
    let mut sc = build_corp(&cfg, Seed(3333));
    sc.world.run_until(SimTime::from_secs(2));
    let gw = sc.gateway.as_ref().map(|g| (g.node, g.rogue_ap_radio));
    let (gw_node, rogue_radio) = gw.expect("rogue deployed");
    assert!(
        sc.world
            .ap(gw_node, rogue_radio)
            .is_associated(victim_mac()),
        "starts on the rogue (valid AP out of range)"
    );

    // Walk back into the office (the rogue fades behind us).
    let radio = sc.world.radio_id(sc.victim, sc.victim_radio);
    let mut x = 150.0;
    let mut now = SimTime::from_secs(2);
    while x > 2.0 {
        x -= 2.0;
        sc.world.medium.set_pos(radio, Pos::new(x, 0.0));
        now += SimDuration::from_millis(100);
        sc.world.run_until(now);
    }
    sc.world.run_until(now + SimDuration::from_secs(5));
    assert_eq!(
        sc.world.sta_state(sc.victim, sc.victim_radio),
        StaState::Associated
    );
    // The corporate AP's table regains the victim. (The rogue may keep a
    // stale entry — stations do not always send Disassoc when roaming,
    // and our AP, like many real ones, ages entries lazily.)
    assert!(
        sc.world
            .ap(sc.valid_ap, sc.valid_ap_radio)
            .is_associated(victim_mac()),
        "back on the corporate AP"
    );
    let _ = (gw_node, rogue_radio);
}

// ---------------------------------------------------------------------
// Scenario-driven mobility: the same physics, reached through the
// declarative layer. The compiler turns `[population.mobility]` into
// walkers stepped on the scenario tick; every applied move must go
// through `Medium::set_pos` and therefore bump the moved radio's move
// count (`Medium::pos_epoch`), which is also what invalidates the
// medium's cached audible rows. A move that bypassed `set_pos` would
// silently freeze the radio environment of a 500-client waypoint
// scenario.

const WAYPOINT_SRC: &str = r#"
name = "mobility-ticks"
seed = 11
duration = "4s"
tick = "100ms"

[[ap]]
ssid = "NET"
bssid = "aa:bb:cc:dd:00:01"
channel = 1
pos = [25.0, 10.0]

[[server]]
name = "www"
ip = "10.0.0.10"
content = "news"

[[population]]
name = "roam"
count = 8
ssid = "NET"
area = [0.0, 0.0, 50.0, 20.0]

[population.mobility]
model = "waypoint"
speed_mps = [1.0, 3.0]
pause = "300ms"
"#;

#[test]
fn scenario_tick_mobility_bumps_pathloss_epochs_per_move() {
    let sc = rogue_scenario::parse_scenario(WAYPOINT_SRC).unwrap();
    let run = rogue_scenario::run_summary(&sc).unwrap();
    let c = &run.compiled;

    assert_eq!(run.stats.walkers, 8);
    assert!(
        run.stats.moves > 8 * 10,
        "4 s of 100 ms ticks must move every walker many times: {}",
        run.stats.moves
    );

    // Each applied move bumps exactly one radio's epoch by one, so the
    // epochs across the population must sum to the moves applied.
    let epoch_sum: u64 = c
        .clients
        .iter()
        .map(|cl| {
            let radio = c.world.radio_id(cl.node, cl.radio);
            c.world.medium.pos_epoch(radio)
        })
        .sum();
    assert_eq!(
        epoch_sum, run.stats.moves,
        "every waypoint move must reach the medium through set_pos"
    );

    // And every walker actually moved (no one-walker-does-everything
    // degenerate case).
    for cl in &c.clients {
        let radio = c.world.radio_id(cl.node, cl.radio);
        assert!(
            c.world.medium.pos_epoch(radio) > 0,
            "{} never moved",
            cl.spec.name
        );
    }
}

#[test]
fn static_scenario_population_never_bumps_epochs() {
    let src = WAYPOINT_SRC.replace(
        "[population.mobility]\nmodel = \"waypoint\"\nspeed_mps = [1.0, 3.0]\npause = \"300ms\"",
        "[population.mobility]\nmodel = \"static\"",
    );
    let sc = rogue_scenario::parse_scenario(&src).unwrap();
    let run = rogue_scenario::run_summary(&sc).unwrap();
    assert_eq!(
        run.stats.walkers, 0,
        "static populations register no walkers"
    );
    assert_eq!(run.stats.moves, 0);
    for cl in &run.compiled.clients {
        let radio = run.compiled.world.radio_id(cl.node, cl.radio);
        assert_eq!(run.compiled.world.medium.pos_epoch(radio), 0);
    }
}
