//! The complete Section 4 kill chain, end to end, with **nothing given to
//! the attacker for free**:
//!
//! 1. passively sniff the WEP'd corporate network,
//! 2. recover the WEP key with the FMS attack (Airsnort),
//! 3. harvest a valid client MAC from the same capture,
//! 4. stand up the rogue gateway using only the *recovered* material,
//! 5. deliver the trojan with a passing MD5 check.
//!
//! Every stage consumes the previous stage's output — the recovered key
//! bytes configure the rogue AP, not the scenario's ground truth.

use rogue_attack::airsnort::{Airsnort, CrackOutcome};
use rogue_core::experiments::e2_download::{run_download_mitm, DownloadMitmConfig};
use rogue_core::scenario::{addrs, corp_bssid, CorpScenarioCfg, RogueCfg};
use rogue_core::world::World;
use rogue_crypto::wep::{IvPolicy, WepKey};
use rogue_dot11::{ApConfig, MacAddr, StaConfig};
use rogue_phy::{MediumParams, Pos};
use rogue_services::traffic::PingApp;
use rogue_sim::{Seed, SimDuration, SimTime};

/// Phase 1–3: sniff, crack, harvest. Returns (recovered key, observed
/// client MACs).
fn sniff_and_crack(seed: Seed) -> (WepKey, Vec<MacAddr>) {
    let true_key = WepKey::from_passphrase_40("SECRET");
    let mut world = World::new(seed, MediumParams::default());

    // A small WEP'd BSS: a gateway-style AP (answers pings itself) plus
    // one chatty employee laptop.
    let ap_node = world.add_node("corp-ap");
    world.add_ap_local(
        ap_node,
        Pos::new(0.0, 0.0),
        15.0,
        ApConfig::typical(corp_bssid(), "CORP", 1, Some(true_key.clone())),
        addrs::CORP_GW,
        24,
    );
    let laptop = world.add_node("employee");
    let mut sta_cfg = StaConfig::typical(MacAddr::local(51), "CORP", Some(true_key.clone()));
    // Accelerated capture model (DESIGN.md E4): weak-only IVs stand in
    // for the millions of frames a sequential card interleaves them in.
    sta_cfg.iv_policy = IvPolicy::WeakOnly {
        counter: 0,
        key_len: 5,
    };
    world.add_sta(
        laptop,
        Pos::new(12.0, 0.0),
        15.0,
        sta_cfg,
        std::net::Ipv4Addr::new(192, 168, 0, 51),
        24,
    );
    // Traffic for the sniffer to chew on: a steady ping stream to the
    // gateway (every protected uplink frame leaks one FMS sample).
    world.add_app(
        laptop,
        Box::new(PingApp::new(
            addrs::CORP_GW,
            SimTime::from_millis(600),
            SimDuration::from_millis(4),
        )),
    );

    // The attacker's monitor, parked on channel 1.
    let attacker = world.add_node("attacker");
    let mon = world.add_monitor(attacker, Pos::new(20.0, 5.0), 1);

    world.run_until(SimTime::from_secs(8));

    let sniffer = world.sniffer(attacker, mon);
    let mut snort = Airsnort::new();
    snort.absorb_sniffer(sniffer);
    let key = match snort.crack(5) {
        CrackOutcome::Recovered(k) => k,
        other => panic!("Airsnort failed with {} samples: {other:?}", snort.samples),
    };
    let macs = sniffer.client_macs(corp_bssid());
    (key, macs)
}

#[test]
fn sniff_crack_clone_mitm_trojan() {
    // Phases 1–3.
    let (recovered_key, macs) = sniff_and_crack(Seed(0xA77AC4));
    let true_key = WepKey::from_passphrase_40("SECRET");
    assert_eq!(
        recovered_key.bytes(),
        true_key.bytes(),
        "FMS must recover the real key from sniffed frames"
    );
    assert!(
        macs.contains(&MacAddr::local(51)),
        "the employee's MAC must be harvested: {macs:?}"
    );

    // Phases 4–5: the rogue gateway configured from recovered material.
    let mut cfg = CorpScenarioCfg::paper_attack();
    cfg.wep = Some(recovered_key); // ← the cracked key, not ground truth
    cfg.mac_filter = true; // the harvested MAC defeats it
    cfg.rogue = Some(RogueCfg::default());
    let result = run_download_mitm(&DownloadMitmConfig { scenario: cfg }, Seed(0xC4A17));
    assert!(result.completed, "error: {:?}", result.error);
    assert!(result.victim_on_rogue);
    assert!(result.victim_got_trojan);
    assert!(result.md5_check_passed, "the victim must be fully deceived");
    assert_eq!(result.file_server, Some(addrs::EVIL));
}

#[test]
fn wrong_key_rogue_captures_nobody() {
    // Control: a rogue with a wrong WEP key advertises privacy but the
    // victim's data never decrypts — and more importantly here, the
    // victim still associates (802.11 open-auth!) but the bridge is
    // deaf, so the download cannot complete.
    let mut cfg = CorpScenarioCfg::paper_attack();
    cfg.rogue = Some(RogueCfg::default());
    // Give the rogue a wrong key by giving the *network* a key the
    // scenario's rogue clones, then swapping the victim off it is not
    // expressible; instead verify at the crypto layer:
    let right = WepKey::from_passphrase_40("SECRET");
    let wrong = WepKey::new(b"WRONG");
    let body = rogue_crypto::wep::seal(&right, [1, 2, 3], 0, b"\xAA\xAA\x03\x00\x00\x00\x08\x00x");
    assert!(
        rogue_crypto::wep::open(&wrong, &body).is_err(),
        "a rogue without the key cannot read or re-seal client traffic"
    );
    let _ = cfg;
}
