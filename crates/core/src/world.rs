//! The composed simulation world.
//!
//! A [`World`] owns the radio [`Medium`], wired switches, and a set of
//! nodes. Each node is a machine: one [`Host`] (the IP stack), any number
//! of radios (each playing a MAC role: station, access point, monitor, or
//! raw injector), wired interfaces attached to switches, an optional VPN
//! tunnel device, and applications.
//!
//! Everything advances through one deterministic event queue. The
//! composition rules mirror real plumbing:
//!
//! * a station radio bound to a host interface behaves like a managed-mode
//!   WiFi NIC: upward `DeliverData` becomes an Ethernet frame into the
//!   stack; frames the stack emits on that interface are sent via the
//!   association,
//! * an **AP-local** radio is a master-mode NIC on the same machine (the
//!   paper's rogue gateway `wlan0`),
//! * an **AP-bridge** radio is a standalone infrastructure AP bridging
//!   802.11 to a wired switch port (the legitimate `CORP` AP),
//! * monitors capture everything decodable on their channel; injectors
//!   transmit arbitrary frames (forged deauth).

use std::collections::HashMap;

use bytes::Bytes;
use rogue_attack::FrameInjector;
use rogue_dot11::ap::ApMac;
use rogue_dot11::monitor::Sniffer;
use rogue_dot11::output::{MacEvent, MacOutput};
use rogue_dot11::sta::{StaMac, StaState};
use rogue_dot11::{ApConfig, MacAddr, RxFilter, StaConfig};
use rogue_netstack::ethernet::EthFrame;
use rogue_netstack::{Host, IfIndex, Ipv4Addr};
use rogue_phy::{Bitrate, Medium, MediumParams, Pos, RadioId, RegionMap, TxHandle};
use rogue_services::apps::{App, AppEvent};
use rogue_sim::profile::{self, Phase, Profiler};
use rogue_sim::queue::EventId;
use rogue_sim::trace::Metrics;
use rogue_sim::{Seed, ShardedQueue, SimDuration, SimRng, SimTime};
use rogue_vpn::{VpnClient, VpnServer};
use rogue_wids::WiredMonitor;

/// Identifies a node in the world.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NodeId(pub usize);

/// Identifies a switch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SwitchId(pub usize);

/// Payload of a frame crossing a switch toward a host interface. Boxed
/// in [`Event`]: `Bytes` alone is several words, and the queue copies
/// events around (wheel slots, the slab), so the enum must stay
/// two words.
struct WireFrame {
    node: u32,
    iface: IfIndex,
    bytes: Bytes,
}

/// Payload of a frame crossing a switch toward a bridge AP radio.
struct BridgeFrame {
    node: u32,
    radio: u32,
    bytes: Bytes,
}

/// Payload of a frame copied to a span-port tap.
struct TapFrame {
    node: u32,
    bytes: Bytes,
}

enum Event {
    TxComplete { tx: TxHandle },
    NodePoll { node: u32 },
    WireDeliver(Box<WireFrame>),
    BridgeDeliver(Box<BridgeFrame>),
    TapDeliver(Box<TapFrame>),
}

// The hot queue moves events by value constantly; keep them at two
// words (tag + payload) so a wheel slot stays cache-line friendly.
const _: () = assert!(std::mem::size_of::<Event>() <= 16);

/// Profiler kind-cell index of an event (indexes [`World::prof_kinds`]).
fn event_kind(ev: &Event) -> usize {
    match ev {
        Event::TxComplete { .. } => 0,
        Event::NodePoll { .. } => 1,
        Event::WireDeliver(_) => 2,
        Event::BridgeDeliver(_) => 3,
        Event::TapDeliver(_) => 4,
    }
}

/// `sim.prof.*` metric keys for the per-phase nanosecond totals, in
/// [`Phase`] order.
const PROF_PHASE_KEYS: [&str; rogue_sim::profile::NUM_PHASES] = [
    "sim.prof.queue_pop_ns",
    "sim.prof.queue_schedule_ns",
    "sim.prof.medium_plan_ns",
    "sim.prof.medium_commit_ns",
    "sim.prof.deliver_ns",
    "sim.prof.poll_ns",
    "sim.prof.op_commit_ns",
    "sim.prof.exec_wall_ns",
];

/// `sim.prof.*` metric keys for the per-event-kind nanosecond totals,
/// in [`event_kind`] order.
const PROF_KIND_KEYS: [&str; 5] = [
    "sim.prof.ev_tx_complete_ns",
    "sim.prof.ev_node_poll_ns",
    "sim.prof.ev_wire_deliver_ns",
    "sim.prof.ev_bridge_deliver_ns",
    "sim.prof.ev_tap_deliver_ns",
];

/// A radio's MAC-layer role.
enum RadioRole {
    Sta {
        mac: StaMac,
        iface: IfIndex,
    },
    ApLocal {
        mac: ApMac,
        iface: IfIndex,
    },
    ApBridge {
        mac: ApMac,
        port: Option<(usize, usize)>,
    },
    Monitor {
        sniffer: Sniffer,
    },
    Injector {
        injector: Box<dyn FrameInjector>,
    },
}

impl RadioRole {
    /// The radio's receive filter: managed-mode radios (station and AP)
    /// filter by receiver address as their MAC does; a monitor hears
    /// everything; an injector hears nothing, since its receive path
    /// drops every frame. Fixed for the radio's lifetime (DESIGN §17.7).
    fn rx_filter(&self) -> RxFilter {
        match self {
            RadioRole::Sta { mac, .. } => mac.rx_filter(),
            RadioRole::ApLocal { mac, .. } | RadioRole::ApBridge { mac, .. } => mac.rx_filter(),
            RadioRole::Monitor { .. } => RxFilter::All,
            RadioRole::Injector { .. } => RxFilter::Nothing,
        }
    }
}

/// Where a completion's delivery to a radio goes, read without touching
/// the node: the owning node, the radio's index in it, and a copy of its
/// receive filter. One dense entry per `RadioId`.
#[derive(Clone, Copy)]
struct RadioOwner {
    node: u32,
    radio: u32,
    filter: RxFilter,
}

/// A node's poll clock, kept in a dense per-node table beside the nodes
/// so a completion decides whether to poll a node without visiting it.
#[derive(Clone, Copy)]
struct PollClock {
    /// When the node's pending `NodePoll` fires (`FOREVER`: none).
    at: SimTime,
    /// Queue entry of the pending `NodePoll`, kept so rescheduling an
    /// *earlier* poll (or a `kick`) can cancel the outstanding one
    /// instead of leaving a redundant entry behind. Invariant: `Some`
    /// exactly while `at != FOREVER`, and the entry fires at `at`.
    event: Option<(usize, EventId)>,
}

impl Default for PollClock {
    fn default() -> Self {
        PollClock {
            at: SimTime::FOREVER,
            event: None,
        }
    }
}

struct RadioBinding {
    radio: RadioId,
    role: RadioRole,
}

enum TunRole {
    Client(VpnClient),
    Server(VpnServer),
}

struct TunBinding {
    iface: IfIndex,
    role: TunRole,
}

struct Node {
    name: String,
    host: Host,
    radios: Vec<RadioBinding>,
    wired: Vec<(IfIndex, (usize, usize))>,
    tun: Option<TunBinding>,
    apps: Vec<Box<dyn App>>,
    wired_monitor: Option<WiredMonitor>,
    wire_tap: Option<WireTap>,
}

/// Note that a completion's delivery reached `node`, keeping nodes in
/// first-delivery order (the order their polls commit in) and whether
/// any of their radios heard the frame.
fn touch(touched: &mut Vec<(usize, bool)>, node: usize, heard: bool) {
    match touched.iter_mut().find(|(n, _)| *n == node) {
        Some((_, h)) => *h |= heard,
        None => touched.push((node, heard)),
    }
}

/// A deferred shared-state effect produced by node-local event work.
///
/// Dispatching an event splits into two halves: *node work* (MAC state
/// machines, the IP stack, apps — everything owned by one [`Node`]) and
/// *ops* — every effect that touches state shared across nodes: medium
/// mutations, queue inserts, switch forwarding, metrics, the event
/// logs. Node work emits ops in exactly the order the inline code
/// would perform the mutations, and the event commits them in emission
/// order right after its node work (DESIGN §17.1). The split keeps node
/// work from reaching shared state, and gives the debug poll-skip audit
/// the ops a skipped poll would have emitted (§17.7).
enum Op {
    /// Begin transmitting on `radio`; schedules the completion event.
    BeginTx {
        radio: RadioId,
        bytes: Bytes,
        bitrate: Bitrate,
    },
    /// Retune `radio`.
    SetChannel { radio: RadioId, channel: u8 },
    /// Inject a frame into switch `sw` at `in_port`. Loss/jitter RNG
    /// draws happen at commit, keeping the world-RNG call sequence
    /// identical to the serial loop's.
    SwitchTx { sw: u32, in_port: u32, bytes: Bytes },
    /// The node's pending poll entry fired: clear the bookkeeping so a
    /// later `SchedulePoll` in the same event passes its gate.
    PollFired { node: u32 },
    /// (Re)schedule the node's next poll; the earlier-poll gate is
    /// evaluated at commit, against whatever preceding ops left the
    /// node's poll clock at.
    SchedulePoll { node: u32, wake: SimTime },
    /// Record a MAC milestone (metrics counter + the `mac_events` log).
    Mac { node: u32, ev: MacEvent },
    /// Record an application milestone.
    App { node: u32, ev: AppEvent },
}

/// Pooled buffers for node-local event work, reused by every dispatch.
#[derive(Default)]
struct NodeScratch {
    mac_outs: Vec<MacOutput>,
    app_events: Vec<AppEvent>,
    frames: Vec<(IfIndex, Bytes)>,
}

/// One node's view of an event dispatch: mutable access to the node
/// itself plus the op buffer collecting its deferred shared-state
/// effects. Everything reachable from here is node-local by
/// construction; the world, the medium and the queue change only when
/// the ops commit.
struct NodeCtx<'a> {
    now: SimTime,
    idx: usize,
    node: &'a mut Node,
    ops: &'a mut Vec<Op>,
    scratch: &'a mut NodeScratch,
}

impl NodeCtx<'_> {
    /// Deliver decoded PHY bytes to one of the node's radios.
    fn receive_on_radio(&mut self, radio: usize, bytes: &Bytes, rssi: f64, channel: u8) {
        let mut outs = std::mem::take(&mut self.scratch.mac_outs);
        debug_assert!(outs.is_empty());
        match &mut self.node.radios[radio].role {
            RadioRole::Sta { mac, .. } => mac.on_receive(self.now, bytes, rssi, channel, &mut outs),
            RadioRole::ApLocal { mac, .. } | RadioRole::ApBridge { mac, .. } => {
                mac.on_receive(self.now, bytes, rssi, channel, &mut outs)
            }
            RadioRole::Monitor { sniffer } => sniffer.on_receive(self.now, bytes, rssi, channel),
            RadioRole::Injector { .. } => {}
        }
        self.process_mac_outputs(radio, &mut outs);
        self.scratch.mac_outs = outs;
    }

    /// Drain a batch of MAC outputs into node-local effects and ops.
    fn process_mac_outputs(&mut self, radio: usize, outs: &mut Vec<MacOutput>) {
        for out in outs.drain(..) {
            match out {
                MacOutput::Tx { bytes, bitrate } => {
                    let radio = self.node.radios[radio].radio;
                    self.ops.push(Op::BeginTx {
                        radio,
                        bytes,
                        bitrate,
                    });
                }
                MacOutput::SetChannel(ch) => {
                    let radio = self.node.radios[radio].radio;
                    self.ops.push(Op::SetChannel { radio, channel: ch });
                }
                MacOutput::DeliverData {
                    src,
                    dst,
                    ethertype,
                    payload,
                } => {
                    self.deliver_up(radio, src, dst, ethertype, payload);
                }
                MacOutput::Event(ev) => {
                    self.ops.push(Op::Mac {
                        node: self.idx as u32,
                        ev,
                    });
                }
            }
        }
    }

    fn deliver_up(
        &mut self,
        radio: usize,
        src: MacAddr,
        dst: MacAddr,
        ethertype: u16,
        payload: Bytes,
    ) {
        enum Up {
            Host(IfIndex),
            Bridge(Option<(usize, usize)>),
        }
        let up = match &self.node.radios[radio].role {
            RadioRole::Sta { iface, .. } | RadioRole::ApLocal { iface, .. } => Up::Host(*iface),
            RadioRole::ApBridge { port, .. } => Up::Bridge(*port),
            _ => return,
        };
        let frame = EthFrame::new(dst, src, ethertype, payload).encode();
        match up {
            Up::Host(iface) => {
                self.node.host.on_link_rx(self.now, iface, &frame);
            }
            Up::Bridge(Some((sw, port))) => {
                self.ops.push(Op::SwitchTx {
                    sw: sw as u32,
                    in_port: port as u32,
                    bytes: frame,
                });
            }
            Up::Bridge(None) => {}
        }
    }

    /// A wired frame arriving at a bridge AP radio from its switch port.
    fn bridge_wired_rx(&mut self, radio: usize, bytes: &Bytes) {
        let Some(eth) = EthFrame::decode(bytes) else {
            return;
        };
        if let RadioRole::ApBridge { mac, .. } = &mut self.node.radios[radio].role {
            if eth.dst.is_multicast() || mac.is_associated(eth.dst) {
                mac.send_data(self.now, eth.src, eth.dst, eth.ethertype, &eth.payload);
            }
        }
    }

    fn poll_node(&mut self) {
        let now = self.now;
        // 1. Stack timers.
        self.node.host.poll(now);

        // 2. MAC entities.
        let radio_count = self.node.radios.len();
        for r in 0..radio_count {
            let mut outs = std::mem::take(&mut self.scratch.mac_outs);
            debug_assert!(outs.is_empty());
            match &mut self.node.radios[r].role {
                RadioRole::Sta { mac, .. } => mac.poll(now, &mut outs),
                RadioRole::ApLocal { mac, .. } | RadioRole::ApBridge { mac, .. } => {
                    mac.poll(now, &mut outs)
                }
                RadioRole::Injector { injector } => injector.poll(now, &mut outs),
                RadioRole::Monitor { .. } => {}
            }
            self.process_mac_outputs(r, &mut outs);
            self.scratch.mac_outs = outs;
        }

        // 3. Applications (they own sockets on the host). The VPN tun
        //    role runs FIRST: it decrypts freshly received records and
        //    injects the inner packets, so ordinary apps observe
        //    up-to-date socket state in the same poll (otherwise a
        //    response arriving through the tunnel would not be seen
        //    until the next timer, stalling inner TCP by a full RTO).
        {
            let mut events = std::mem::take(&mut self.scratch.app_events);
            debug_assert!(events.is_empty());
            let n = &mut *self.node;
            if let Some(tun) = &mut n.tun {
                match &mut tun.role {
                    TunRole::Client(c) => c.poll(now, &mut n.host, &mut events),
                    TunRole::Server(s) => s.poll(now, &mut n.host, &mut events),
                }
            }
            for app in &mut n.apps {
                app.poll(now, &mut n.host, &mut events);
            }
            for ev in events.drain(..) {
                self.ops.push(Op::App {
                    node: self.idx as u32,
                    ev,
                });
            }
            self.scratch.app_events = events;
        }

        // 4. Drain stack output, possibly several rounds (tun
        //    encapsulation generates new transport frames).
        let mut frames = std::mem::take(&mut self.scratch.frames);
        for _round in 0..8 {
            debug_assert!(frames.is_empty());
            self.node.host.take_frames_into(&mut frames);
            if frames.is_empty() {
                break;
            }
            for (ifx, bytes) in frames.drain(..) {
                self.dispatch_host_frame(ifx, bytes);
            }
        }
        self.scratch.frames = frames;

        // 5. Schedule the next poll.
        let wake = node_next_wake(self.node);
        if wake != SimTime::FOREVER {
            self.ops.push(Op::SchedulePoll {
                node: self.idx as u32,
                wake,
            });
        }
    }

    fn dispatch_host_frame(&mut self, ifx: IfIndex, bytes: Bytes) {
        // Tun device?
        if let Some(tun) = &mut self.node.tun {
            if tun.iface == ifx {
                let mut binding = self.node.tun.take().expect("just checked");
                match &mut binding.role {
                    TunRole::Client(c) => {
                        c.consume_tun_frame(self.now, &mut self.node.host, &bytes)
                    }
                    TunRole::Server(s) => {
                        s.consume_tun_frame(self.now, &mut self.node.host, &bytes)
                    }
                }
                self.node.tun = Some(binding);
                return;
            }
        }
        // Wired port?
        if let Some(&(_, (sw, port))) = self.node.wired.iter().find(|(i, _)| *i == ifx) {
            self.ops.push(Op::SwitchTx {
                sw: sw as u32,
                in_port: port as u32,
                bytes,
            });
            return;
        }
        // Wireless NIC?
        let radio = self.node.radios.iter().position(|rb| match &rb.role {
            RadioRole::Sta { iface, .. } | RadioRole::ApLocal { iface, .. } => *iface == ifx,
            _ => false,
        });
        if let Some(r) = radio {
            let Some(eth) = EthFrame::decode(&bytes) else {
                return;
            };
            match &mut self.node.radios[r].role {
                RadioRole::Sta { mac, .. } => {
                    mac.send_data(self.now, eth.dst, eth.ethertype, &eth.payload);
                }
                RadioRole::ApLocal { mac, .. } => {
                    mac.send_data(self.now, eth.src, eth.dst, eth.ethertype, &eth.payload);
                }
                _ => unreachable!(),
            }
        }
    }
}

/// Earliest instant any of the node's components needs a poll.
///
/// Contract, inherited from every component's `next_wake`: a poll
/// before this instant, with no input since the last poll, does nothing
/// — it emits no op and leaves this value unchanged. Completions skip
/// such polls; debug builds audit every skip (DESIGN §17.7).
fn node_next_wake(n: &Node) -> SimTime {
    let mut wake = n.host.next_wake();
    for rb in &n.radios {
        wake = wake.min(match &rb.role {
            RadioRole::Sta { mac, .. } => mac.next_wake(),
            RadioRole::ApLocal { mac, .. } | RadioRole::ApBridge { mac, .. } => mac.next_wake(),
            RadioRole::Injector { injector } => injector.next_wake(),
            RadioRole::Monitor { .. } => SimTime::FOREVER,
        });
    }
    for app in &n.apps {
        wake = wake.min(app.next_wake());
    }
    if let Some(tun) = &n.tun {
        wake = wake.min(match &tun.role {
            TunRole::Client(c) => c.next_wake(),
            TunRole::Server(s) => s.next_wake(),
        });
    }
    wake
}

/// Debug audit of a poll a completion skipped (DESIGN §17.7): poll the
/// node anyway, drop the ops, and check the [`node_next_wake`] contract
/// held — nothing was emitted but a `SchedulePoll` at or after the
/// `pending` poll (a no-op at commit), and the next wake did not move.
fn audit_skipped_poll(
    now: SimTime,
    idx: usize,
    pending: SimTime,
    node: &mut Node,
    scratch: &mut NodeScratch,
) {
    let wake = node_next_wake(node);
    let mut ops = Vec::new();
    NodeCtx {
        now,
        idx,
        node,
        ops: &mut ops,
        scratch,
    }
    .poll_node();
    let quiet = ops
        .iter()
        .all(|op| matches!(op, Op::SchedulePoll { wake, .. } if *wake >= pending));
    assert!(
        quiet && node_next_wake(node) == wake,
        "poll skip: node {idx} acted on a poll at t={now:?} before its next wake \
         {wake:?} with no input; a next_wake() understates when it needs a poll"
    );
}

/// Raw frames copied off a switch by a passive span port, in arrival
/// order — the wired-side analogue of [`Sniffer`], consumed by streaming
/// analyzers (rogue-wids) that digest the buffer incrementally.
#[derive(Default)]
pub struct WireTap {
    /// Captured (time, frame bytes) pairs.
    pub frames: Vec<(SimTime, Bytes)>,
}

enum PortTarget {
    HostIface { node: usize, iface: IfIndex },
    Bridge { node: usize, radio: usize },
    Tap { node: usize },
}

struct Switch {
    latency: SimDuration,
    /// Independent per-frame drop probability (models a lossy segment
    /// for the E5 tunnel-transport comparison; 0 on clean LANs).
    loss: f64,
    /// Uniform extra delay in [0, jitter] per frame. Nonzero jitter
    /// reorders frames — a stress knob for the TCP reassembly path.
    jitter: SimDuration,
    ports: Vec<PortTarget>,
    table: HashMap<MacAddr, usize>,
    frames: u64,
}

/// The composed world.
pub struct World {
    /// The shared radio medium.
    pub medium: Medium,
    queue: ShardedQueue<Event>,
    /// Spatial shard ownership, built lazily from the radio extent on
    /// the first sharded `run_until`. `None` while single-sharded or
    /// before the first run.
    region_map: Option<RegionMap>,
    /// Lockstep window width of a sharded run: the unit `sim.windows`
    /// counts. It groups events for that metric only; dispatch order
    /// is the same at any width.
    window: SimDuration,
    /// Shard whose event is currently being dispatched (0 while idle or
    /// single-sharded); a schedule targeting a different shard is a
    /// boundary crossing.
    current_shard: usize,
    sim_windows: u64,
    sim_boundary_crossings: u64,
    sim_shard_occupancy_max: u64,
    nodes: Vec<Node>,
    /// Per node, its poll clock (indexed like `nodes`).
    poll_clock: Vec<PollClock>,
    switches: Vec<Switch>,
    /// Per `RadioId`, its owner and receive filter.
    radio_owner: Vec<RadioOwner>,
    rng: SimRng,
    /// Always-on hot-path cycle profiler (wall-clock attribution; only
    /// surfaced through `sim.prof.*` metrics and bench JSONs, never a
    /// golden table).
    prof: Profiler,
    /// Kind-cell indices, in [`event_kind`] order.
    prof_kinds: [usize; 5],
    /// Total `schedule_event` calls; the 1-in-64-sampled QueueSchedule
    /// phase extrapolates from this at snapshot time.
    sched_count: u64,
    // Pooled scratch buffers, reused across every event dispatch.
    ops_scratch: Vec<Op>,
    node_scratch: NodeScratch,
    touched_scratch: Vec<(usize, bool)>,
    /// MAC protocol milestones, in order: (time, node, event).
    pub mac_events: Vec<(SimTime, NodeId, MacEvent)>,
    /// Application milestones, in order.
    pub app_events: Vec<(SimTime, NodeId, AppEvent)>,
    /// Aggregate run counters (associations, forced kicks, WEP failures,
    /// switch frames) — mergeable across Monte-Carlo replications.
    pub metrics: Metrics,
}

/// Process-wide default shard count for new worlds; see
/// [`with_default_shards`].
static DEFAULT_SHARDS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(1);

/// Run `f` with every [`World::new`] in scope starting at `n` event-loop
/// shards, restoring the previous default afterwards (panic-safe).
/// Every shard count dispatches through the same serial loop, so this
/// knob exists for exactly one purpose: letting the determinism suite
/// re-render whole experiment reports — whose drivers build worlds
/// internally — under shard counts the drivers never ask for.
/// Concurrent scopes are serialized by a global lock, like
/// [`rayon::with_num_threads`].
pub fn with_default_shards<R>(n: usize, f: impl FnOnce() -> R) -> R {
    use std::sync::atomic::Ordering;
    static SCOPE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _scope = SCOPE.lock().unwrap_or_else(|p| p.into_inner());
    let previous = DEFAULT_SHARDS.swap(n.max(1), Ordering::Relaxed);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    DEFAULT_SHARDS.store(previous, Ordering::Relaxed);
    match outcome {
        Ok(value) => value,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

impl World {
    /// New empty world.
    pub fn new(seed: Seed, params: MediumParams) -> World {
        let mut rng = SimRng::new(seed);
        let mut prof = Profiler::new();
        let prof_kinds = [
            prof.register_kind("tx_complete"),
            prof.register_kind("node_poll"),
            prof.register_kind("wire_deliver"),
            prof.register_kind("bridge_deliver"),
            prof.register_kind("tap_deliver"),
        ];
        World {
            medium: Medium::new(params, Seed(rng.next_u64())),
            queue: ShardedQueue::new(DEFAULT_SHARDS.load(std::sync::atomic::Ordering::Relaxed)),
            region_map: None,
            window: SimDuration::from_millis(1),
            current_shard: 0,
            sim_windows: 0,
            sim_boundary_crossings: 0,
            sim_shard_occupancy_max: 0,
            nodes: Vec::new(),
            poll_clock: Vec::new(),
            switches: Vec::new(),
            radio_owner: Vec::new(),
            rng,
            prof,
            prof_kinds,
            sched_count: 0,
            ops_scratch: Vec::new(),
            node_scratch: NodeScratch::default(),
            touched_scratch: Vec::new(),
            mac_events: Vec::new(),
            app_events: Vec::new(),
            metrics: Metrics::default(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Add a wired switch segment.
    pub fn add_switch(&mut self, latency: SimDuration) -> SwitchId {
        self.add_switch_lossy(latency, 0.0)
    }

    /// Add a wired segment that drops each frame with probability `loss`.
    pub fn add_switch_lossy(&mut self, latency: SimDuration, loss: f64) -> SwitchId {
        self.add_switch_impaired(latency, loss, SimDuration::ZERO)
    }

    /// Add a wired segment with loss *and* per-frame jitter (which
    /// reorders frames whose delays overlap).
    pub fn add_switch_impaired(
        &mut self,
        latency: SimDuration,
        loss: f64,
        jitter: SimDuration,
    ) -> SwitchId {
        self.switches.push(Switch {
            latency,
            loss,
            jitter,
            ports: Vec::new(),
            table: HashMap::new(),
            frames: 0,
        });
        SwitchId(self.switches.len() - 1)
    }

    /// Add a machine.
    pub fn add_node(&mut self, name: &str) -> NodeId {
        let host = Host::new(name, self.rng.fork(self.nodes.len() as u64 + 0x4000));
        self.nodes.push(Node {
            name: name.to_string(),
            host,
            radios: Vec::new(),
            wired: Vec::new(),
            tun: None,
            apps: Vec::new(),
            wired_monitor: None,
            wire_tap: None,
        });
        self.poll_clock.push(PollClock::default());
        NodeId(self.nodes.len() - 1)
    }

    /// Node name (diagnostics).
    pub fn node_name(&self, n: NodeId) -> &str {
        &self.nodes[n.0].name
    }

    /// Borrow a node's IP stack.
    pub fn host(&self, n: NodeId) -> &Host {
        &self.nodes[n.0].host
    }

    /// Mutably borrow a node's IP stack (scenario setup: routes, NAT…).
    pub fn host_mut(&mut self, n: NodeId) -> &mut Host {
        &mut self.nodes[n.0].host
    }

    // ------------------------------------------------------------------
    // Component attachment
    // ------------------------------------------------------------------

    /// Give node `node` the radio `radio` (just registered with the
    /// medium) in `role`; returns its index within the node.
    fn bind_radio(&mut self, node: usize, radio: RadioId, role: RadioRole) -> usize {
        debug_assert_eq!(radio.0 as usize, self.radio_owner.len());
        let idx = self.nodes[node].radios.len();
        self.radio_owner.push(RadioOwner {
            node: node as u32,
            radio: idx as u32,
            filter: role.rx_filter(),
        });
        self.nodes[node].radios.push(RadioBinding { radio, role });
        idx
    }

    /// Attach a managed-mode (station) NIC: radio + MAC + host interface.
    /// Returns (radio index within node, host interface index).
    pub fn add_sta(
        &mut self,
        n: NodeId,
        pos: Pos,
        tx_power_dbm: f64,
        cfg: StaConfig,
        ip: Ipv4Addr,
        prefix_len: u8,
    ) -> (usize, IfIndex) {
        let now = self.queue.now();
        self.add_sta_starting_at(n, pos, tx_power_dbm, cfg, ip, prefix_len, now)
    }

    /// Like [`World::add_sta`], but the station's scan clock starts at
    /// `start_at` — a device powered on mid-run. City-scale worlds
    /// stagger joins this way; stations all created at time zero would
    /// finish their scan sweeps simultaneously and pile every
    /// association exchange onto one instant, a synchronized storm no
    /// real deployment produces.
    #[allow(clippy::too_many_arguments)]
    pub fn add_sta_starting_at(
        &mut self,
        n: NodeId,
        pos: Pos,
        tx_power_dbm: f64,
        cfg: StaConfig,
        ip: Ipv4Addr,
        prefix_len: u8,
        start_at: SimTime,
    ) -> (usize, IfIndex) {
        let channel = cfg.channels[0];
        let radio = self.medium.add_radio(pos, channel, tx_power_dbm);
        let iface = self.nodes[n.0].host.add_iface(cfg.mac, ip, prefix_len);
        let mac = StaMac::new(cfg, self.rng.fork(radio.0 as u64), start_at);
        let idx = self.bind_radio(n.0, radio, RadioRole::Sta { mac, iface });
        self.schedule_poll(n.0, start_at.max(self.queue.now()));
        (idx, iface)
    }

    /// Attach a master-mode NIC on a routing machine (the rogue gateway's
    /// `wlan0`): AP MAC + host interface.
    pub fn add_ap_local(
        &mut self,
        n: NodeId,
        pos: Pos,
        tx_power_dbm: f64,
        cfg: ApConfig,
        ip: Ipv4Addr,
        prefix_len: u8,
    ) -> (usize, IfIndex) {
        let now = self.queue.now();
        self.add_ap_local_starting_at(n, pos, tx_power_dbm, cfg, ip, prefix_len, now)
    }

    /// Like [`World::add_ap_local`], but the AP stays silent until
    /// `start_at` — a rogue brought up mid-run.
    #[allow(clippy::too_many_arguments)]
    pub fn add_ap_local_starting_at(
        &mut self,
        n: NodeId,
        pos: Pos,
        tx_power_dbm: f64,
        cfg: ApConfig,
        ip: Ipv4Addr,
        prefix_len: u8,
        start_at: rogue_sim::SimTime,
    ) -> (usize, IfIndex) {
        let radio = self.medium.add_radio(pos, cfg.channel, tx_power_dbm);
        let iface = self.nodes[n.0].host.add_iface(cfg.bssid, ip, prefix_len);
        let mac = ApMac::new_starting_at(cfg, self.rng.fork(radio.0 as u64), start_at);
        let idx = self.bind_radio(n.0, radio, RadioRole::ApLocal { mac, iface });
        self.schedule_poll(n.0, self.queue.now());
        (idx, iface)
    }

    /// Attach a standalone infrastructure AP that bridges 802.11 to a
    /// wired switch (the legitimate corporate AP).
    pub fn add_ap_bridge(
        &mut self,
        n: NodeId,
        pos: Pos,
        tx_power_dbm: f64,
        cfg: ApConfig,
        switch: Option<SwitchId>,
    ) -> usize {
        let radio = self.medium.add_radio(pos, cfg.channel, tx_power_dbm);
        let mac = ApMac::new(cfg, self.rng.fork(radio.0 as u64), self.queue.now());
        let radio_idx = self.nodes[n.0].radios.len();
        let port = switch.map(|sw| {
            let port = self.switches[sw.0].ports.len();
            self.switches[sw.0].ports.push(PortTarget::Bridge {
                node: n.0,
                radio: radio_idx,
            });
            (sw.0, port)
        });
        self.bind_radio(n.0, radio, RadioRole::ApBridge { mac, port });
        self.schedule_poll(n.0, self.queue.now());
        radio_idx
    }

    /// Attach a wired NIC to a switch.
    pub fn add_wired_iface(
        &mut self,
        n: NodeId,
        switch: SwitchId,
        mac: MacAddr,
        ip: Ipv4Addr,
        prefix_len: u8,
    ) -> IfIndex {
        let iface = self.nodes[n.0].host.add_iface(mac, ip, prefix_len);
        let port = self.switches[switch.0].ports.len();
        self.switches[switch.0]
            .ports
            .push(PortTarget::HostIface { node: n.0, iface });
        self.nodes[n.0].wired.push((iface, (switch.0, port)));
        iface
    }

    /// Attach a monitor-mode radio (sniffer) on `channel`.
    pub fn add_monitor(&mut self, n: NodeId, pos: Pos, channel: u8) -> usize {
        let radio = self.medium.add_radio(pos, channel, 15.0);
        let sniffer = Sniffer::new();
        self.bind_radio(n.0, radio, RadioRole::Monitor { sniffer })
    }

    /// Retune a node's radio (channel-hopping audits).
    pub fn set_radio_channel(&mut self, n: NodeId, radio_idx: usize, channel: u8) {
        let radio = self.nodes[n.0].radios[radio_idx].radio;
        self.medium.set_channel(radio, channel);
    }

    /// Raw medium identifier of a node's radio (mobility drivers move
    /// radios via `world.medium.set_pos`).
    pub fn radio_id(&self, n: NodeId, radio_idx: usize) -> RadioId {
        self.nodes[n.0].radios[radio_idx].radio
    }

    /// Borrow a monitor radio's capture buffer.
    pub fn sniffer(&self, n: NodeId, radio_idx: usize) -> &Sniffer {
        match &self.nodes[n.0].radios[radio_idx].role {
            RadioRole::Monitor { sniffer } => sniffer,
            _ => panic!("radio {radio_idx} is not a monitor"),
        }
    }

    /// Attach a raw-frame injector (forged deauth, spoofed beacons,
    /// any [`FrameInjector`] schedule) on `channel`.
    pub fn add_injector(
        &mut self,
        n: NodeId,
        pos: Pos,
        tx_power_dbm: f64,
        channel: u8,
        injector: impl FrameInjector + 'static,
    ) -> usize {
        let radio = self.medium.add_radio(pos, channel, tx_power_dbm);
        let injector = Box::new(injector);
        let idx = self.bind_radio(n.0, radio, RadioRole::Injector { injector });
        self.schedule_poll(n.0, self.queue.now());
        idx
    }

    /// Attach a wired-segment monitor as a switch tap (span port).
    pub fn add_wired_monitor(&mut self, n: NodeId, switch: SwitchId, monitor: WiredMonitor) {
        self.switches[switch.0]
            .ports
            .push(PortTarget::Tap { node: n.0 });
        self.nodes[n.0].wired_monitor = Some(monitor);
    }

    /// Borrow the node's wired monitor.
    pub fn wired_monitor(&self, n: NodeId) -> Option<&WiredMonitor> {
        self.nodes[n.0].wired_monitor.as_ref()
    }

    /// Attach a raw wired tap (span port) that buffers every frame the
    /// switch carries, for streaming consumers.
    pub fn add_wire_tap(&mut self, n: NodeId, switch: SwitchId) {
        if self.nodes[n.0].wire_tap.is_none() {
            self.nodes[n.0].wire_tap = Some(WireTap::default());
        }
        self.switches[switch.0]
            .ports
            .push(PortTarget::Tap { node: n.0 });
    }

    /// Borrow the node's raw wired tap buffer.
    pub fn wire_tap(&self, n: NodeId) -> Option<&WireTap> {
        self.nodes[n.0].wire_tap.as_ref()
    }

    /// Add a tun device interface (before constructing the VPN app).
    pub fn add_tun_iface(
        &mut self,
        n: NodeId,
        mac: MacAddr,
        ip: Ipv4Addr,
        prefix_len: u8,
    ) -> IfIndex {
        self.nodes[n.0].host.add_iface(mac, ip, prefix_len)
    }

    /// Attach a VPN client to its tun interface.
    pub fn attach_vpn_client(&mut self, n: NodeId, iface: IfIndex, client: VpnClient) {
        self.nodes[n.0].tun = Some(TunBinding {
            iface,
            role: TunRole::Client(client),
        });
        self.schedule_poll(n.0, self.queue.now());
    }

    /// Attach a VPN endpoint to its tun interface.
    pub fn attach_vpn_server(&mut self, n: NodeId, iface: IfIndex, server: VpnServer) {
        self.nodes[n.0].tun = Some(TunBinding {
            iface,
            role: TunRole::Server(server),
        });
        self.schedule_poll(n.0, self.queue.now());
    }

    /// Borrow the node's VPN client.
    pub fn vpn_client(&self, n: NodeId) -> Option<&VpnClient> {
        match &self.nodes[n.0].tun {
            Some(TunBinding {
                role: TunRole::Client(c),
                ..
            }) => Some(c),
            _ => None,
        }
    }

    /// Borrow the node's VPN endpoint.
    pub fn vpn_server(&self, n: NodeId) -> Option<&VpnServer> {
        match &self.nodes[n.0].tun {
            Some(TunBinding {
                role: TunRole::Server(s),
                ..
            }) => Some(s),
            _ => None,
        }
    }

    /// Attach an application; returns its index for later downcast reads.
    pub fn add_app(&mut self, n: NodeId, app: Box<dyn App>) -> usize {
        self.nodes[n.0].apps.push(app);
        self.schedule_poll(n.0, self.queue.now());
        self.nodes[n.0].apps.len() - 1
    }

    /// Downcast-borrow an application.
    pub fn app<T: App>(&self, n: NodeId, idx: usize) -> &T {
        self.nodes[n.0].apps[idx]
            .as_any()
            .downcast_ref::<T>()
            .expect("app type mismatch")
    }

    /// Downcast-borrow an application mutably.
    pub fn app_mut<T: App>(&mut self, n: NodeId, idx: usize) -> &mut T {
        self.nodes[n.0].apps[idx]
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("app type mismatch")
    }

    /// Borrow a station MAC.
    pub fn sta(&self, n: NodeId, radio_idx: usize) -> &StaMac {
        match &self.nodes[n.0].radios[radio_idx].role {
            RadioRole::Sta { mac, .. } => mac,
            _ => panic!("radio {radio_idx} is not a station"),
        }
    }

    /// Borrow an AP MAC (local or bridge).
    pub fn ap(&self, n: NodeId, radio_idx: usize) -> &ApMac {
        match &self.nodes[n.0].radios[radio_idx].role {
            RadioRole::ApLocal { mac, .. } | RadioRole::ApBridge { mac, .. } => mac,
            _ => panic!("radio {radio_idx} is not an AP"),
        }
    }

    /// Convenience: a station's current association state.
    pub fn sta_state(&self, n: NodeId, radio_idx: usize) -> StaState {
        self.sta(n, radio_idx).state().clone()
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Partition the event queue into `n` spatial shards (DESIGN.md §15).
    ///
    /// Must be called before the first `run_until`. Events already
    /// queued during setup migrate into the new layout with their
    /// sequence numbers preserved, and the k-way merge pops them in
    /// global `(time, seq)` order through the same serial dispatcher
    /// as `n == 1`, so any shard count yields **bit-identical** output.
    /// Shards change only the queue layout and the `sim.windows` and
    /// `sim.boundary_crossings` counts.
    pub fn set_shards(&mut self, n: usize) {
        assert!(
            self.queue.dispatched() == 0,
            "set_shards must run before the first run_until"
        );
        let old = std::mem::replace(&mut self.queue, ShardedQueue::new(n));
        self.region_map = None;
        self.ensure_region_map();
        for (at, seq, ev) in old.into_entries() {
            let shard = self.shard_for(&ev);
            let poll_node = match &ev {
                Event::NodePoll { node } => Some(*node as usize),
                _ => None,
            };
            let id = self.queue.schedule_at_seq(shard, at, seq, ev);
            // Pending-poll handles point into the old queue's shards;
            // rebind them to the migrated entries.
            if let Some(node) = poll_node {
                self.poll_clock[node].event = Some((shard, id));
            }
        }
    }

    /// Number of event-loop shards (1 = classic serial loop).
    pub fn shards(&self) -> usize {
        self.queue.num_shards()
    }

    /// Width of the lockstep window a sharded run counts in
    /// `sim.windows`. Any width is bit-identical.
    pub fn set_shard_window(&mut self, window: SimDuration) {
        self.window = window;
    }

    /// Total events dispatched through the loop so far (the events/s
    /// numerator in the scaling benches).
    pub fn events_dispatched(&self) -> u64 {
        self.queue.dispatched()
    }

    /// Region ownership of an event: the stripe of the position whose
    /// state its dispatch touches first. Stable for the whole run once
    /// the region map exists; shard 0 before that (setup-time events).
    fn shard_for(&self, ev: &Event) -> usize {
        let Some(map) = &self.region_map else {
            return 0;
        };
        let node = match ev {
            Event::TxComplete { tx } => return map.region_of(self.medium.tx_src_pos(*tx)),
            Event::NodePoll { node } => *node,
            Event::WireDeliver(f) => f.node,
            Event::BridgeDeliver(f) => f.node,
            Event::TapDeliver(f) => f.node,
        };
        self.nodes[node as usize]
            .radios
            .first()
            .map(|rb| map.region_of(self.medium.pos(rb.radio)))
            .unwrap_or(0)
    }

    /// Schedule `ev`, routing it to its owning shard and counting
    /// boundary crossings: schedules landing on a different shard than
    /// the one currently dispatching, plus completions whose audible
    /// disc spills across a stripe edge.
    fn schedule_event(&mut self, at: SimTime, ev: Event) -> (usize, EventId) {
        let shard = self.shard_for(&ev);
        if self.queue.num_shards() > 1 {
            if shard != self.current_shard {
                self.sim_boundary_crossings += 1;
            } else if let (Event::TxComplete { tx }, Some(map)) = (&ev, &self.region_map) {
                if map.disc_crosses_region(
                    self.medium.tx_src_pos(*tx),
                    self.medium.tx_audible_range_m(*tx),
                ) {
                    self.sim_boundary_crossings += 1;
                }
            }
        }
        // Probing every insert would dominate the cost being measured;
        // sample 1-in-64 and extrapolate at snapshot time.
        self.sched_count += 1;
        let id = if self.sched_count & 0x3F == 0 {
            let t0 = profile::now();
            let id = self.queue.schedule(shard, at, ev);
            self.prof.record(Phase::QueueSchedule, t0);
            id
        } else {
            self.queue.schedule(shard, at, ev)
        };
        (shard, id)
    }

    /// Build the stripe partition from the current radio extent, once,
    /// on the first sharded run.
    fn ensure_region_map(&mut self) {
        if self.region_map.is_some()
            || self.queue.num_shards() == 1
            || self.medium.radio_count() == 0
        {
            return;
        }
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        for i in 0..self.medium.radio_count() {
            let x = self.medium.pos(RadioId(i as u32)).x;
            min_x = min_x.min(x);
            max_x = max_x.max(x);
        }
        if !min_x.is_finite() || !max_x.is_finite() {
            (min_x, max_x) = (0.0, 0.0);
        }
        self.region_map = Some(RegionMap::new(self.queue.num_shards(), min_x, max_x));
    }

    /// Run until simulated time `deadline`: pop events in global
    /// `(time, seq)` order and dispatch each one. Every shard count runs
    /// this one loop (DESIGN §15.3).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.ensure_region_map();
        let sharded = self.queue.num_shards() > 1;
        // End of the open lockstep window; the first event past it opens
        // the next one.
        let mut window_end: Option<SimTime> = None;
        loop {
            let t0 = profile::now();
            let popped = self.queue.pop_until(deadline);
            self.prof.record(Phase::QueuePop, t0);
            let Some((now, ev, shard)) = popped else {
                break;
            };
            if sharded && window_end.is_none_or(|end| now > end) {
                window_end = Some((now + self.window).min(deadline));
                self.sim_windows += 1;
                // Occupancy as the window opens: the popped head still
                // counts on its shard.
                let occupancy = (0..self.queue.num_shards())
                    .map(|s| self.queue.shard_len(s) + usize::from(s == shard))
                    .max()
                    .unwrap_or(0) as u64;
                self.sim_shard_occupancy_max = self.sim_shard_occupancy_max.max(occupancy);
            }
            self.current_shard = shard;
            let kind = self.prof_kinds[event_kind(&ev)];
            let t0 = profile::now();
            self.dispatch_event(now, ev);
            self.prof.record_kind(kind, t0);
        }
        self.current_shard = 0;
        // Mirror the medium's counters into the metrics sink so reports
        // and tests read them the same way as the `mac.*` family.
        self.metrics.set("phy.frames_sent", self.medium.frames_sent);
        self.metrics
            .set("phy.halfduplex_misses", self.medium.halfduplex_misses);
        self.metrics.set("phy.sinr_drops", self.medium.sinr_drops);
        let (pairs, hits, misses) = self.medium.pathloss_cache_stats();
        self.metrics.set("phy.pathloss_cache_pairs", pairs as u64);
        self.metrics.set("phy.pathloss_cache_hits", hits);
        self.metrics.set("phy.pathloss_cache_misses", misses);
        self.metrics
            .set("phy.audible_rows_reused", self.medium.audible_rows_reused());
        self.metrics.set(
            "phy.power_map_entries",
            self.medium.power_map_entries() as u64,
        );
        // Mirror the VPN record-layer counters (summed over every tun
        // binding) the same way: `vpn.bytes_copied` staying 0 is the
        // observable proof the zero-copy record path held (DESIGN §12).
        let (mut sealed, mut opened, mut copied) = (0u64, 0u64, 0u64);
        for node in &self.nodes {
            if let Some(tun) = &node.tun {
                let (s, o, c) = match &tun.role {
                    TunRole::Client(cl) => cl.record_stats(),
                    TunRole::Server(sv) => sv.record_stats(),
                };
                sealed += s;
                opened += o;
                copied += c;
            }
        }
        self.metrics.set("vpn.records_sealed", sealed);
        self.metrics.set("vpn.records_opened", opened);
        self.metrics.set("vpn.bytes_copied", copied);
        // Sharded-loop observability (all zero in the serial loop).
        // These live beside `phy.*` in the sink but are never rendered
        // into a golden table: they vary with the shard count while
        // every table must not.
        self.metrics.set("sim.windows", self.sim_windows);
        self.metrics
            .set("sim.boundary_crossings", self.sim_boundary_crossings);
        self.metrics
            .set("sim.shard_occupancy_max", self.sim_shard_occupancy_max);
        // Profiler breakdown: wall-clock, so strictly `sim.*` (never in
        // a golden table, which must be identical across shard counts
        // and hosts).
        let snap = self.profile_snapshot();
        for (i, &(_, ns, _)) in snap.phases.iter().enumerate() {
            self.metrics.set(PROF_PHASE_KEYS[i], ns);
        }
        for (i, &(_, ns, _)) in snap.kinds.iter().enumerate() {
            self.metrics.set(PROF_KIND_KEYS[i], ns);
        }
        self.metrics.set("sim.prof.overhead_ns", snap.overhead_ns);
        self.metrics.set("sim.prof.dispatch_ns", snap.dispatch_ns);
        self.metrics
            .set("sim.prof.overhead_permille", snap.overhead_permille());
    }

    /// Calibrated profiler snapshot: per-phase and per-event-kind time,
    /// plus the measured probe overhead. The sampled QueueSchedule phase
    /// is extrapolated to the full schedule count here.
    pub fn profile_snapshot(&self) -> rogue_sim::profile::Snapshot {
        let mut snap = self.prof.snapshot();
        let row = &mut snap.phases[Phase::QueueSchedule as usize];
        if let Some(scaled) = (row.1 * self.sched_count).checked_div(row.2) {
            row.1 = scaled;
            row.2 = self.sched_count;
        }
        snap
    }

    /// Dispatch one event: its node work, then its ops in emission
    /// order.
    fn dispatch_event(&mut self, now: SimTime, ev: Event) {
        let mut ops = std::mem::take(&mut self.ops_scratch);
        let mut scratch = std::mem::take(&mut self.node_scratch);
        debug_assert!(ops.is_empty());
        match ev {
            Event::TxComplete { tx } => {
                // complete_tx == plan_complete + commit_complete; split
                // here so each phase is attributed.
                let t0 = profile::now();
                let plan = self.medium.plan_complete(now, tx);
                self.prof.record(Phase::MediumPlan, t0);
                let t0 = profile::now();
                let deliveries = self.medium.commit_complete(plan);
                self.prof.record(Phase::MediumCommit, t0);
                // The owner table and the poll clocks decide who hears
                // the frame and who is polled; a node is visited only to
                // receive or to poll (DESIGN §17.7).
                let t0 = profile::now();
                let mut touched = std::mem::take(&mut self.touched_scratch);
                debug_assert!(touched.is_empty());
                for d in deliveries {
                    let owner = self.radio_owner[d.to.0 as usize];
                    let (node, radio) = (owner.node as usize, owner.radio as usize);
                    debug_assert_eq!(
                        owner.filter,
                        self.nodes[node].radios[radio].role.rx_filter(),
                        "radio {} changed its receive filter",
                        d.to.0
                    );
                    let heard = owner.filter.hears(&d.bytes);
                    if heard {
                        NodeCtx {
                            now,
                            idx: node,
                            node: &mut self.nodes[node],
                            ops: &mut ops,
                            scratch: &mut scratch,
                        }
                        .receive_on_radio(radio, &d.bytes, d.rssi_dbm, d.channel);
                    }
                    touch(&mut touched, node, heard);
                }
                self.prof.record(Phase::Deliver, t0);
                let t0 = profile::now();
                for &(node, heard) in &touched {
                    // Poll only with new input or a poll due now: any
                    // other poll would run before the node's next wake
                    // with no input since its last poll, which the
                    // [`node_next_wake`] contract makes a no-op.
                    let pending = self.poll_clock[node].at;
                    if heard || pending <= now {
                        NodeCtx {
                            now,
                            idx: node,
                            node: &mut self.nodes[node],
                            ops: &mut ops,
                            scratch: &mut scratch,
                        }
                        .poll_node();
                    } else if cfg!(debug_assertions) {
                        audit_skipped_poll(now, node, pending, &mut self.nodes[node], &mut scratch);
                    }
                }
                self.prof.record(Phase::Poll, t0);
                touched.clear();
                self.touched_scratch = touched;
            }
            Event::NodePoll { node } => {
                let node = node as usize;
                // With the cancel discipline there is exactly one
                // pending entry and it fires at the poll clock. The
                // clear is itself an op (emitted first) so the
                // `SchedulePoll` gate sees the serial-order state at
                // commit time — see `Op::PollFired`.
                ops.push(Op::PollFired { node: node as u32 });
                let t0 = profile::now();
                NodeCtx {
                    now,
                    idx: node,
                    node: &mut self.nodes[node],
                    ops: &mut ops,
                    scratch: &mut scratch,
                }
                .poll_node();
                self.prof.record(Phase::Poll, t0);
            }
            Event::WireDeliver(f) => {
                let node = f.node as usize;
                let t0 = profile::now();
                let mut cx = NodeCtx {
                    now,
                    idx: node,
                    node: &mut self.nodes[node],
                    ops: &mut ops,
                    scratch: &mut scratch,
                };
                cx.node.host.on_link_rx(now, f.iface, &f.bytes);
                cx.poll_node();
                self.prof.record(Phase::Poll, t0);
            }
            Event::BridgeDeliver(f) => {
                let node = f.node as usize;
                let t0 = profile::now();
                let mut cx = NodeCtx {
                    now,
                    idx: node,
                    node: &mut self.nodes[node],
                    ops: &mut ops,
                    scratch: &mut scratch,
                };
                cx.bridge_wired_rx(f.radio as usize, &f.bytes);
                cx.poll_node();
                self.prof.record(Phase::Poll, t0);
            }
            Event::TapDeliver(f) => {
                if let Some(mon) = &mut self.nodes[f.node as usize].wired_monitor {
                    mon.inspect(now, &f.bytes);
                }
                if let Some(tap) = &mut self.nodes[f.node as usize].wire_tap {
                    tap.frames.push((now, f.bytes));
                }
            }
        }
        // Commit: replay the deferred shared-state effects in emission
        // order, which equals the old inline mutation order.
        if !ops.is_empty() {
            let t0 = profile::now();
            let n = ops.len() as u64;
            for op in ops.drain(..) {
                self.commit_op(now, op);
            }
            self.prof.record_many(Phase::OpCommit, t0, n);
        }
        self.ops_scratch = ops;
        self.node_scratch = scratch;
    }

    /// Apply one deferred op. Called in emission order at an event's
    /// commit point; the sequence of medium mutations, queue inserts,
    /// world-RNG draws and log appends this produces is exactly what the
    /// inline code would do.
    fn commit_op(&mut self, now: SimTime, op: Op) {
        match op {
            Op::BeginTx {
                radio,
                bytes,
                bitrate,
            } => {
                let (tx, end) = self.medium.begin_tx(now, radio, bytes, bitrate);
                self.schedule_event(end, Event::TxComplete { tx });
            }
            Op::SetChannel { radio, channel } => self.medium.set_channel(radio, channel),
            Op::SwitchTx { sw, in_port, bytes } => {
                self.switch_tx(now, sw as usize, in_port as usize, bytes)
            }
            Op::PollFired { node } => {
                let clock = &mut self.poll_clock[node as usize];
                debug_assert_eq!(clock.at, now);
                *clock = PollClock::default();
            }
            Op::SchedulePoll { node, wake } => self.schedule_poll(node as usize, wake),
            Op::Mac { node, ev } => {
                match &ev {
                    MacEvent::Associated { .. } => self.metrics.incr("mac.associated"),
                    MacEvent::Disassociated { forced: true, .. } => {
                        self.metrics.incr("mac.deauth_forced")
                    }
                    MacEvent::Disassociated { forced: false, .. } => {
                        self.metrics.incr("mac.assoc_lost")
                    }
                    MacEvent::ClientAssociated { .. } => self.metrics.incr("mac.ap_client_joined"),
                    MacEvent::ClientRejected { .. } => self.metrics.incr("mac.ap_client_rejected"),
                    MacEvent::TxFailed { .. } => self.metrics.incr("mac.tx_failed"),
                    MacEvent::WepDecryptFailed { .. } => self.metrics.incr("mac.wep_failed"),
                }
                self.mac_events.push((now, NodeId(node as usize), ev));
            }
            Op::App { node, ev } => self.app_events.push((now, NodeId(node as usize), ev)),
        }
    }

    fn switch_tx(&mut self, now: SimTime, sw: usize, in_port: usize, bytes: Bytes) {
        let loss = self.switches[sw].loss;
        if loss > 0.0 && self.rng.chance(loss) {
            return; // frame lost on the segment
        }
        let jitter = self.switches[sw].jitter;
        let extra = if jitter > SimDuration::ZERO {
            SimDuration::from_nanos(self.rng.below(jitter.as_nanos() + 1))
        } else {
            SimDuration::ZERO
        };
        self.metrics.incr("wire.frames");
        let (latency, targets) = {
            let switch = &mut self.switches[sw];
            switch.frames += 1;
            let Some(eth) = EthFrame::decode(&bytes) else {
                return;
            };
            if !eth.src.is_multicast() {
                switch.table.insert(eth.src, in_port);
            }
            let out_ports: Vec<usize> = if eth.dst.is_multicast() {
                (0..switch.ports.len()).filter(|&p| p != in_port).collect()
            } else {
                match switch.table.get(&eth.dst) {
                    Some(&p) if p != in_port => vec![p],
                    Some(_) => Vec::new(),
                    None => (0..switch.ports.len()).filter(|&p| p != in_port).collect(),
                }
            };
            // Taps always get a copy (span port semantics).
            let mut sel: Vec<usize> = out_ports;
            for (p, t) in switch.ports.iter().enumerate() {
                if matches!(t, PortTarget::Tap { .. }) && !sel.contains(&p) && p != in_port {
                    sel.push(p);
                }
            }
            (switch.latency, sel)
        };
        for p in targets {
            let ev = match &self.switches[sw].ports[p] {
                PortTarget::HostIface { node, iface } => Event::WireDeliver(Box::new(WireFrame {
                    node: *node as u32,
                    iface: *iface,
                    bytes: bytes.clone(),
                })),
                PortTarget::Bridge { node, radio } => Event::BridgeDeliver(Box::new(BridgeFrame {
                    node: *node as u32,
                    radio: *radio as u32,
                    bytes: bytes.clone(),
                })),
                PortTarget::Tap { node } => Event::TapDeliver(Box::new(TapFrame {
                    node: *node as u32,
                    bytes: bytes.clone(),
                })),
            };
            self.schedule_event(now + latency + extra, ev);
        }
    }

    fn schedule_poll(&mut self, node: usize, wake: SimTime) {
        if wake == SimTime::FOREVER {
            return;
        }
        let at = wake.max(self.queue.now());
        if self.poll_clock[node].at <= at {
            return; // an earlier-or-equal poll is already pending
        }
        self.commit_schedule_poll(node, at);
    }

    /// Move the node's pending poll to `at`: cancel the outstanding
    /// queue entry (if any) and insert the new one, maintaining the
    /// ≤ 1-pending-poll-per-node invariant. Callers have already decided
    /// the move is wanted; no earlier-poll gate here.
    fn commit_schedule_poll(&mut self, node: usize, at: SimTime) {
        if let Some((shard, id)) = self.poll_clock[node].event.take() {
            self.queue.cancel_on(shard, id);
        }
        let handle = self.schedule_event(at, Event::NodePoll { node: node as u32 });
        self.poll_clock[node] = PollClock {
            at,
            event: Some(handle),
        };
    }

    /// Schedule an immediate poll of a node — required after mutating a
    /// host from outside the event loop (e.g. `host_mut(n).ping(…)`) on a
    /// node that has no periodic wake source of its own. An outstanding
    /// later poll is cancelled rather than left as a redundant queue
    /// entry (it would dispatch as a pure no-op poll).
    pub fn kick(&mut self, n: NodeId) {
        let now = self.queue.now();
        if self.poll_clock[n.0].at <= now {
            return; // a poll at this very instant is already pending
        }
        self.commit_schedule_poll(n.0, now);
    }

    /// Count of MAC events matching a predicate.
    pub fn count_mac_events(&self, f: impl Fn(&MacEvent) -> bool) -> usize {
        self.mac_events.iter().filter(|(_, _, e)| f(e)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rogue_attack::DeauthFlooder;
    use rogue_dot11::frame::FrameBody;
    use rogue_dot11::StaConfig;

    fn corp_ap_cfg() -> ApConfig {
        ApConfig::typical(MacAddr::local(1), "NET", 1, None)
    }

    #[test]
    fn monitor_hears_beacons_on_its_channel_only() {
        let mut w = World::new(Seed(1), MediumParams::default());
        let ap = w.add_node("ap");
        w.add_ap_bridge(ap, Pos::new(0.0, 0.0), 15.0, corp_ap_cfg(), None);
        let snif = w.add_node("sniffer");
        let on_channel = w.add_monitor(snif, Pos::new(5.0, 0.0), 1);
        let off_channel = w.add_monitor(snif, Pos::new(5.0, 0.0), 6);
        w.run_until(SimTime::from_millis(550));
        assert!(w.sniffer(snif, on_channel).beacons().len() >= 4);
        assert!(w.sniffer(snif, off_channel).beacons().is_empty());
    }

    #[test]
    fn injector_frames_reach_receivers() {
        let mut w = World::new(Seed(2), MediumParams::default());
        let atk = w.add_node("attacker");
        let flooder = DeauthFlooder::new(
            MacAddr::local(1),
            None,
            SimTime::from_millis(10),
            SimDuration::from_millis(100),
            SimTime::from_millis(500),
        );
        w.add_injector(atk, Pos::new(0.0, 0.0), 15.0, 1, flooder);
        let snif = w.add_node("sniffer");
        let mon = w.add_monitor(snif, Pos::new(5.0, 0.0), 1);
        w.run_until(SimTime::from_secs(1));
        let deauths = w
            .sniffer(snif, mon)
            .captures
            .iter()
            .filter(|c| matches!(c.frame.body, FrameBody::Deauth { .. }))
            .count();
        assert_eq!(deauths, 5, "10,110,210,310,410ms");
    }

    #[test]
    fn station_joins_ap_through_world() {
        let mut w = World::new(Seed(3), MediumParams::default());
        let ap = w.add_node("ap");
        let ap_radio = w.add_ap_bridge(ap, Pos::new(0.0, 0.0), 15.0, corp_ap_cfg(), None);
        let sta_node = w.add_node("sta");
        let cfg = StaConfig::typical(MacAddr::local(9), "NET", None);
        let (sta_radio, _if) = w.add_sta(
            sta_node,
            Pos::new(10.0, 0.0),
            15.0,
            cfg,
            Ipv4Addr::new(10, 0, 0, 9),
            24,
        );
        w.run_until(SimTime::from_secs(2));
        assert_eq!(w.sta_state(sta_node, sta_radio), StaState::Associated);
        assert!(w.ap(ap, ap_radio).is_associated(MacAddr::local(9)));
        assert!(w.count_mac_events(|e| matches!(e, MacEvent::Associated { .. })) >= 1);
    }

    #[test]
    fn kick_cancels_pending_poll_instead_of_duplicating_it() {
        // Twin worlds: B gets one kick mid-run while a later poll is
        // already pending. The kick must *move* that entry (cancel +
        // reschedule), so B dispatches exactly one extra event — the
        // kicked poll — and the MAC trace stays identical. The old
        // behaviour left the stale entry in the queue as a redundant
        // no-op poll, observable as extra dispatches.
        let build = |kick: bool| {
            let mut w = World::new(Seed(11), MediumParams::default());
            let ap = w.add_node("ap");
            w.add_ap_bridge(ap, Pos::new(0.0, 0.0), 15.0, corp_ap_cfg(), None);
            let sta = w.add_node("sta");
            w.add_sta(
                sta,
                Pos::new(10.0, 0.0),
                15.0,
                StaConfig::typical(MacAddr::local(9), "NET", None),
                Ipv4Addr::new(10, 0, 0, 9),
                24,
            );
            w.run_until(SimTime::from_millis(5));
            if kick {
                w.kick(sta);
            }
            w.run_until(SimTime::from_secs(1));
            let trace: Vec<String> = w
                .mac_events
                .iter()
                .map(|(t, n, e)| format!("{} {} {:?}", t.as_nanos(), n.0, e))
                .collect();
            (w.events_dispatched(), trace)
        };
        let (base_events, base_trace) = build(false);
        let (kicked_events, kicked_trace) = build(true);
        assert_eq!(
            kicked_events,
            base_events + 1,
            "a kick adds exactly the kicked poll, never a duplicate entry"
        );
        assert_eq!(kicked_trace, base_trace, "extra poll must be a no-op");
    }

    #[test]
    fn repeated_kicks_at_one_instant_collapse_to_one_poll() {
        let mut w = World::new(Seed(12), MediumParams::default());
        let n = w.add_node("idle");
        let base = w.events_dispatched();
        w.kick(n);
        w.kick(n);
        w.kick(n);
        w.run_until(SimTime::from_millis(1));
        assert_eq!(w.events_dispatched() - base, 1, "one poll, not three");
    }

    #[test]
    fn wired_monitor_tap_sees_switch_traffic() {
        let mut w = World::new(Seed(4), MediumParams::default());
        let sw = w.add_switch(SimDuration::from_micros(10));
        let a = w.add_node("a");
        w.add_wired_iface(a, sw, MacAddr::local(1), Ipv4Addr::new(10, 0, 0, 1), 24);
        let b = w.add_node("b");
        w.add_wired_iface(b, sw, MacAddr::local(2), Ipv4Addr::new(10, 0, 0, 2), 24);
        let m = w.add_node("monitor");
        w.add_wired_monitor(m, sw, WiredMonitor::new([MacAddr::local(1)]));
        // a pings b: ARP + echo both cross the switch.
        w.host_mut(a)
            .ping(SimTime::ZERO, Ipv4Addr::new(10, 0, 0, 2), 1);
        w.kick(a);
        w.run_until(SimTime::from_millis(100));
        let mon = w.wired_monitor(m).expect("attached");
        assert!(mon.inspected >= 2, "tap must see the exchange");
        // b's MAC is unregistered: exactly one stranger.
        assert_eq!(mon.strangers.len(), 1);
        assert_eq!(mon.strangers[0].1, MacAddr::local(2));
    }

    #[test]
    fn switch_learning_limits_flooding() {
        let mut w = World::new(Seed(5), MediumParams::default());
        let sw = w.add_switch(SimDuration::from_micros(10));
        let a = w.add_node("a");
        w.add_wired_iface(a, sw, MacAddr::local(1), Ipv4Addr::new(10, 0, 0, 1), 24);
        let b = w.add_node("b");
        w.add_wired_iface(b, sw, MacAddr::local(2), Ipv4Addr::new(10, 0, 0, 2), 24);
        let c = w.add_node("c");
        w.add_wired_iface(c, sw, MacAddr::local(3), Ipv4Addr::new(10, 0, 0, 3), 24);
        // Warm up: a <-> b unicast exchange teaches the switch.
        w.host_mut(a)
            .ping(SimTime::ZERO, Ipv4Addr::new(10, 0, 0, 2), 1);
        w.kick(a);
        w.run_until(SimTime::from_millis(50));
        let before = w.host(c).delivered;
        // More unicast a -> b: c must see none of it.
        let now = w.now();
        w.host_mut(a).ping(now, Ipv4Addr::new(10, 0, 0, 2), 2);
        w.kick(a);
        w.run_until(now + SimDuration::from_millis(50));
        assert_eq!(w.host(c).delivered, before, "learned unicast not flooded");
        // And the pings themselves worked.
        assert!(w
            .host_mut(a)
            .take_events()
            .iter()
            .any(|e| matches!(e, rogue_netstack::HostEvent::PingReply { seq: 2, .. })));
    }

    #[test]
    fn metrics_count_protocol_milestones() {
        let mut w = World::new(Seed(8), MediumParams::default());
        let ap = w.add_node("ap");
        w.add_ap_bridge(ap, Pos::new(0.0, 0.0), 15.0, corp_ap_cfg(), None);
        let sta = w.add_node("sta");
        let cfg = StaConfig::typical(MacAddr::local(9), "NET", None);
        w.add_sta(
            sta,
            Pos::new(5.0, 0.0),
            15.0,
            cfg,
            Ipv4Addr::new(10, 0, 0, 9),
            24,
        );
        w.run_until(SimTime::from_secs(2));
        assert!(w.metrics.counter("mac.associated") >= 1);
        assert!(w.metrics.counter("mac.ap_client_joined") >= 1);
        assert_eq!(w.metrics.counter("mac.deauth_forced"), 0);
    }

    #[test]
    fn app_downcast_accessors() {
        use rogue_services::traffic::PingApp;
        let mut w = World::new(Seed(6), MediumParams::default());
        let n = w.add_node("n");
        let idx = w.add_app(
            n,
            Box::new(PingApp::new(
                Ipv4Addr::new(10, 0, 0, 1),
                SimTime::FOREVER,
                SimDuration::from_secs(1),
            )),
        );
        assert_eq!(w.app::<PingApp>(n, idx).sent, 0);
        w.app_mut::<PingApp>(n, idx).sent = 5;
        assert_eq!(w.app::<PingApp>(n, idx).sent, 5);
    }

    #[test]
    #[should_panic(expected = "app type mismatch")]
    fn app_downcast_type_checked() {
        use rogue_services::traffic::{PingApp, UdpSink};
        let mut w = World::new(Seed(7), MediumParams::default());
        let n = w.add_node("n");
        let idx = w.add_app(
            n,
            Box::new(PingApp::new(
                Ipv4Addr::new(10, 0, 0, 1),
                SimTime::FOREVER,
                SimDuration::from_secs(1),
            )),
        );
        let _ = w.app::<UdpSink>(n, idx);
    }
}
