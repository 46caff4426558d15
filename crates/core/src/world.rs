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
use rayon::prelude::*;
use rogue_attack::FrameInjector;
use rogue_detect::wired::WiredMonitor;
use rogue_dot11::ap::ApMac;
use rogue_dot11::monitor::Sniffer;
use rogue_dot11::output::{MacEvent, MacOutput};
use rogue_dot11::sta::{StaMac, StaState};
use rogue_dot11::{ApConfig, MacAddr, StaConfig};
use rogue_netstack::ethernet::EthFrame;
use rogue_netstack::{Host, IfIndex, Ipv4Addr};
use rogue_phy::{Bitrate, Medium, MediumParams, Pos, RadioId, RegionMap, TxHandle, TxPlan};
use rogue_services::apps::{App, AppEvent};
use rogue_sim::profile::{self, Phase, Profiler};
use rogue_sim::queue::EventId;
use rogue_sim::trace::Metrics;
use rogue_sim::{Seed, ShardedQueue, SimDuration, SimRng, SimTime};
use rogue_vpn::{VpnClient, VpnServer};

/// Identifies a node in the world.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NodeId(pub usize);

/// Identifies a switch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SwitchId(pub usize);

/// Payload of a frame crossing a switch toward a host interface. Boxed
/// in [`Event`]: `Bytes` alone is several words, and the queue copies
/// events around (wheel slots, burst buffers), so the enum must stay
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
    scheduled_poll: SimTime,
    /// Queue entry of the pending `NodePoll`, kept so rescheduling an
    /// *earlier* poll (or a `kick`) can cancel the outstanding one
    /// instead of leaving a redundant entry behind. Invariant: `Some`
    /// exactly while `scheduled_poll != FOREVER`, and the entry fires at
    /// `scheduled_poll`.
    poll_event: Option<(usize, EventId)>,
}

/// A deferred shared-state effect produced by node-local event work.
///
/// Dispatching an event splits into two halves: *node work* (MAC state
/// machines, the IP stack, apps — everything owned by one [`Node`]) and
/// *ops* — every effect that touches state shared across nodes: medium
/// mutations, queue inserts, switch forwarding, metrics, the event
/// logs. Node work emits ops in exactly the order the old inline code
/// performed the mutations, so committing ops in emission order
/// reproduces the serial mutation sequence — sequence-number
/// assignment, RNG draws, `mac_events` order — byte for byte. That is
/// the whole bit-identity argument for the parallel dispatcher (DESIGN
/// §17): node work can run on any thread in any interleaving because
/// everything it touches is node-local, and the commit point replays
/// the shared-state effects in canonical `(time, seq)` event order.
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
    /// evaluated at commit, against whatever preceding ops left
    /// `scheduled_poll` at.
    SchedulePoll { node: u32, wake: SimTime },
    /// Record a MAC milestone (metrics counter + the `mac_events` log).
    Mac { node: u32, ev: MacEvent },
    /// Record an application milestone.
    App { node: u32, ev: AppEvent },
}

/// Pooled buffers for node-local event work — per-thread in the
/// parallel dispatcher, a single pooled instance in the serial loop.
#[derive(Default)]
struct NodeScratch {
    mac_outs: Vec<MacOutput>,
    app_events: Vec<AppEvent>,
    frames: Vec<(IfIndex, Bytes)>,
}

/// One node's view of an event dispatch: mutable access to the node
/// itself plus the op buffer collecting its deferred shared-state
/// effects. Everything reachable from here is node-local by
/// construction, which is what makes a `NodeCtx` safe to drive from a
/// rayon worker while other workers drive other nodes.
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

/// One unit of node-local work inside a parallel burst: everything a
/// single event does to a single node, with shared-state effects
/// deferred as [`Op`]s. Tasks are built in canonical order — event
/// order; within a `TxComplete`, deliveries in plan order, then
/// first-touch polls — so committing task ops in task order replays
/// the serial schedule exactly.
enum TaskKind {
    /// Deliver decoded PHY bytes to one radio (from a frozen plan).
    Receive {
        radio: u32,
        bytes: Bytes,
        rssi_dbm: f64,
        channel: u8,
    },
    /// Post-delivery poll of a node touched by a `TxComplete`.
    TouchPoll,
    /// A `NodePoll` event: clears the poll handle (as its first op),
    /// then polls.
    PollEvent,
    /// A `WireDeliver` event: host link-rx, then poll.
    HostRx { iface: IfIndex, bytes: Bytes },
    /// A `BridgeDeliver` event: bridge-AP wired-rx, then poll.
    BridgeRx { radio: u32, bytes: Bytes },
    /// A `TapDeliver` event: span-port copy into monitor + tap log.
    Tap { bytes: Bytes },
}

struct Task {
    /// Index of the owning event within the burst prefix.
    event: u32,
    /// The node whose state this task mutates — the partition key.
    node: u32,
    kind: TaskKind,
}

/// Raw-pointer view of the world's node slab, shared with the rayon
/// pool during a parallel burst.
///
/// Safety: the dispatcher groups tasks into per-node chains and hands
/// each chain to exactly one worker, so no two workers ever reach the
/// same `Node`; the owning `Vec` is neither resized nor dropped while
/// the view is live.
#[derive(Clone, Copy)]
struct NodesView {
    ptr: *mut Node,
}
unsafe impl Send for NodesView {}
unsafe impl Sync for NodesView {}

impl NodesView {
    /// Pointer to node `i`. A closure that calls this captures the whole
    /// view, so the `Send`/`Sync` promises above cover it.
    fn node(self, i: usize) -> *mut Node {
        self.ptr.wrapping_add(i)
    }
}

thread_local! {
    /// Per-worker pooled buffers for parallel burst execution.
    static EXEC_SCRATCH: std::cell::RefCell<NodeScratch> =
        std::cell::RefCell::new(NodeScratch::default());
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
    /// Lockstep window width for the sharded loop. Purely a batching
    /// knob: correctness is guarded by the medium's channel-version
    /// conflict detection, so any width yields bit-identical output.
    window: SimDuration,
    /// Shard whose event is currently being dispatched (0 while idle or
    /// single-sharded); a schedule targeting a different shard is a
    /// boundary crossing.
    current_shard: usize,
    sim_windows: u64,
    sim_boundary_crossings: u64,
    sim_plans_parallel: u64,
    sim_plans_committed: u64,
    sim_plans_stale: u64,
    sim_shard_occupancy_max: u64,
    nodes: Vec<Node>,
    switches: Vec<Switch>,
    radio_owner: Vec<(usize, usize)>, // RadioId.0 -> (node, radio idx)
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
    touched_scratch: Vec<usize>,
    /// Node → chain index during parallel burst construction
    /// (`u32::MAX` = unassigned); sized to the node count, entries
    /// reset after every burst so no O(nodes) clear on the hot path.
    chain_map: Vec<u32>,
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
/// Sharding is bit-identical by construction, so this knob exists for
/// exactly one purpose: letting the determinism suite re-render whole
/// experiment reports — whose drivers build worlds internally — under
/// shard counts the drivers never ask for. Concurrent scopes are
/// serialized by a global lock, like [`rayon::with_num_threads`].
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
            sim_plans_parallel: 0,
            sim_plans_committed: 0,
            sim_plans_stale: 0,
            sim_shard_occupancy_max: 0,
            nodes: Vec::new(),
            switches: Vec::new(),
            radio_owner: Vec::new(),
            rng,
            prof,
            prof_kinds,
            sched_count: 0,
            ops_scratch: Vec::new(),
            node_scratch: NodeScratch::default(),
            touched_scratch: Vec::new(),
            chain_map: Vec::new(),
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
            scheduled_poll: SimTime::FOREVER,
            poll_event: None,
        });
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

    fn register_radio(&mut self, node: usize, pos: Pos, channel: u8, power: f64) -> RadioId {
        let id = self.medium.add_radio(pos, channel, power);
        debug_assert_eq!(id.0 as usize, self.radio_owner.len());
        self.radio_owner.push((node, self.nodes[node].radios.len()));
        id
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
        let radio = self.register_radio(n.0, pos, channel, tx_power_dbm);
        let iface = self.nodes[n.0].host.add_iface(cfg.mac, ip, prefix_len);
        let mac = StaMac::new(cfg, self.rng.fork(radio.0 as u64), start_at);
        self.nodes[n.0].radios.push(RadioBinding {
            radio,
            role: RadioRole::Sta { mac, iface },
        });
        self.schedule_poll(n.0, start_at.max(self.queue.now()));
        (self.nodes[n.0].radios.len() - 1, iface)
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
        let radio = self.register_radio(n.0, pos, cfg.channel, tx_power_dbm);
        let iface = self.nodes[n.0].host.add_iface(cfg.bssid, ip, prefix_len);
        let mac = ApMac::new_starting_at(cfg, self.rng.fork(radio.0 as u64), start_at);
        self.nodes[n.0].radios.push(RadioBinding {
            radio,
            role: RadioRole::ApLocal { mac, iface },
        });
        self.schedule_poll(n.0, self.queue.now());
        (self.nodes[n.0].radios.len() - 1, iface)
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
        let radio = self.register_radio(n.0, pos, cfg.channel, tx_power_dbm);
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
        self.nodes[n.0].radios.push(RadioBinding {
            radio,
            role: RadioRole::ApBridge { mac, port },
        });
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
        let radio = self.register_radio(n.0, pos, channel, 15.0);
        self.nodes[n.0].radios.push(RadioBinding {
            radio,
            role: RadioRole::Monitor {
                sniffer: Sniffer::new(),
            },
        });
        self.nodes[n.0].radios.len() - 1
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
        let radio = self.register_radio(n.0, pos, channel, tx_power_dbm);
        self.nodes[n.0].radios.push(RadioBinding {
            radio,
            role: RadioRole::Injector {
                injector: Box::new(injector),
            },
        });
        self.schedule_poll(n.0, self.queue.now());
        self.nodes[n.0].radios.len() - 1
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

    /// Partition the event loop into `n` spatial shards (DESIGN.md §15).
    ///
    /// Must be called before the first `run_until`. Events already
    /// queued during setup migrate into the new layout with their
    /// sequence numbers preserved, so any shard count yields
    /// **bit-identical** output to `n == 1` — events always dispatch in
    /// global `(time, seq)` order; sharding only batches the read-only
    /// SINR planning of each lockstep window onto the rayon pool.
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
                self.nodes[node].poll_event = Some((shard, id));
            }
        }
    }

    /// Number of event-loop shards (1 = classic serial loop).
    pub fn shards(&self) -> usize {
        self.queue.num_shards()
    }

    /// Width of the conservative lockstep window used by the sharded
    /// loop. A batching knob only — any width is bit-identical.
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

    /// Run until simulated time `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        let mut plans: Vec<(TxHandle, TxPlan)> = Vec::new();
        if self.queue.num_shards() == 1 {
            // Classic serial loop: pop-dispatch one event at a time.
            loop {
                let t0 = profile::now();
                let popped = self.queue.pop_until(deadline);
                self.prof.record(Phase::QueuePop, t0);
                let Some((now, ev, _)) = popped else { break };
                let kind = self.prof_kinds[event_kind(&ev)];
                let t0 = profile::now();
                self.dispatch_event(now, ev, &mut plans);
                self.prof.record_kind(kind, t0);
            }
        } else {
            self.ensure_region_map();
            self.run_windows(deadline, &mut plans);
        }
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
            .set("sim.plans_parallel", self.sim_plans_parallel);
        self.metrics
            .set("sim.plans_committed", self.sim_plans_committed);
        self.metrics.set("sim.plans_stale", self.sim_plans_stale);
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

    /// Could dispatching `ev` emit a `SetChannel` — directly from a
    /// receive, or from the poll that follows? A frozen completion plan
    /// is only committed unvalidated when no hazard precedes it in the
    /// burst: a same-instant `begin_tx` provably cannot perturb a
    /// completion at the same instant (DESIGN §17), but a retune can.
    fn event_may_retune(&self, now: SimTime, ev: &Event, plan: Option<&TxPlan>) -> bool {
        match ev {
            Event::TxComplete { .. } => {
                let Some(plan) = plan else {
                    return true; // unplanned completion: assume the worst
                };
                plan.deliveries().iter().any(|d| {
                    let (node, radio) = self.radio_owner[d.to.0 as usize];
                    let rx = match &self.nodes[node].radios[radio].role {
                        RadioRole::Sta { mac, .. } => mac.rx_may_retune(&d.bytes, d.rssi_dbm),
                        _ => false,
                    };
                    rx || self.node_poll_hazard(node, now)
                })
            }
            Event::NodePoll { node } => self.node_poll_hazard(*node as usize, now),
            Event::WireDeliver(f) => self.node_poll_hazard(f.node as usize, now),
            Event::BridgeDeliver(f) => self.node_poll_hazard(f.node as usize, now),
            Event::TapDeliver(_) => false,
        }
    }

    /// Could polling `node` at `now` emit a `SetChannel`? Only STA MACs
    /// retune (scan hops, roams, beacon-loss rescans) and injectors are
    /// trusted to declare themselves via `FrameInjector::may_retune`.
    fn node_poll_hazard(&self, node: usize, now: SimTime) -> bool {
        self.nodes[node].radios.iter().any(|rb| match &rb.role {
            RadioRole::Sta { mac, .. } => mac.poll_may_retune(now),
            RadioRole::Injector { injector } => injector.may_retune(),
            _ => false,
        })
    }

    /// Execute one burst with genuinely parallel node work (DESIGN §17).
    ///
    /// Protocol: plan every completion against pre-burst state; split
    /// the burst at the first completion preceded by a retune hazard;
    /// run the prefix's node work as per-node task chains on the rayon
    /// pool (shared-state effects deferred as ops); then commit at the
    /// barrier in global `(time, seq)` order — frozen plan, then that
    /// event's ops in emission order — which replays the serial
    /// mutation schedule byte-for-byte. The suffix goes through the
    /// classic serial validate-or-replan dispatch.
    ///
    /// Returns false (burst untouched) when the burst is too small to
    /// pay for the pool round-trip.
    fn dispatch_burst_parallel(
        &mut self,
        t: SimTime,
        burst: &mut Vec<(Event, usize)>,
        plans: &mut Vec<(TxHandle, TxPlan)>,
    ) -> bool {
        const MIN_PARALLEL_EVENTS: usize = 4;
        if burst.len() < MIN_PARALLEL_EVENTS {
            return false;
        }
        if self.chain_map.len() < self.nodes.len() {
            self.chain_map.resize(self.nodes.len(), u32::MAX);
        }

        // Plan every completion in the burst against pre-burst state.
        // Prefix plans are *frozen* (committed without validation);
        // suffix plans feed the validate-or-replan path.
        let mut plans_by_event: Vec<Option<TxPlan>> = burst.iter().map(|_| None).collect();
        let todo: Vec<(usize, TxHandle)> = burst
            .iter()
            .enumerate()
            .filter_map(|(i, (ev, _))| match ev {
                Event::TxComplete { tx } => Some((i, *tx)),
                _ => None,
            })
            .collect();
        if !todo.is_empty() {
            let t0 = profile::now();
            let medium = &self.medium;
            let computed: Vec<TxPlan> = if todo.len() > 1 {
                todo.par_iter()
                    .map(|&(_, tx)| medium.plan_complete(t, tx))
                    .collect()
            } else {
                todo.iter()
                    .map(|&(_, tx)| medium.plan_complete(t, tx))
                    .collect()
            };
            self.sim_plans_parallel += computed.len() as u64;
            for ((i, _), plan) in todo.iter().zip(computed) {
                plans_by_event[*i] = Some(plan);
            }
            self.prof.record(Phase::MediumPlan, t0);
        }

        // Find the split: the first completion preceded by a retune
        // hazard, and everything after it, must dispatch serially.
        let mut split = burst.len();
        let mut hazard = false;
        for (i, (ev, _)) in burst.iter().enumerate() {
            if hazard && matches!(ev, Event::TxComplete { .. }) {
                split = i;
                break;
            }
            if !hazard && self.event_may_retune(t, ev, plans_by_event[i].as_ref()) {
                hazard = true;
            }
        }

        // A trivial prefix, or one whose work all lands on a single
        // node, cannot use the pool — demote to all-serial replay
        // (which still reuses the speculative plans).
        if split < MIN_PARALLEL_EVENTS {
            split = 0;
        } else {
            let mut marks: Vec<usize> = Vec::new();
            for (i, (ev, _)) in burst.iter().take(split).enumerate() {
                match ev {
                    Event::TxComplete { .. } => {
                        let plan = plans_by_event[i].as_ref().expect("completion was planned");
                        for d in plan.deliveries() {
                            let (node, _) = self.radio_owner[d.to.0 as usize];
                            if self.chain_map[node] == u32::MAX {
                                self.chain_map[node] = 0;
                                marks.push(node);
                            }
                        }
                    }
                    Event::NodePoll { node } => {
                        let n = *node as usize;
                        if self.chain_map[n] == u32::MAX {
                            self.chain_map[n] = 0;
                            marks.push(n);
                        }
                    }
                    Event::WireDeliver(f) => {
                        let n = f.node as usize;
                        if self.chain_map[n] == u32::MAX {
                            self.chain_map[n] = 0;
                            marks.push(n);
                        }
                    }
                    Event::BridgeDeliver(f) => {
                        let n = f.node as usize;
                        if self.chain_map[n] == u32::MAX {
                            self.chain_map[n] = 0;
                            marks.push(n);
                        }
                    }
                    Event::TapDeliver(f) => {
                        let n = f.node as usize;
                        if self.chain_map[n] == u32::MAX {
                            self.chain_map[n] = 0;
                            marks.push(n);
                        }
                    }
                }
            }
            let distinct = marks.len();
            for n in marks {
                self.chain_map[n] = u32::MAX;
            }
            if distinct < 2 {
                split = 0;
            }
        }

        if split > 0 {
            // ---- Build the prefix task list in canonical order. ----
            let mut tasks: Vec<Task> = Vec::with_capacity(split * 2);
            // Per prefix event: (shard, kind index, end of its task range).
            let mut ev_meta: Vec<(usize, usize, u32)> = Vec::with_capacity(split);
            let mut touched = std::mem::take(&mut self.touched_scratch);
            for (i, (ev, shard)) in burst.drain(..split).enumerate() {
                let kind = self.prof_kinds[event_kind(&ev)];
                let event = i as u32;
                match ev {
                    Event::TxComplete { .. } => {
                        let plan = plans_by_event[i].as_ref().expect("completion was planned");
                        touched.clear();
                        for d in plan.deliveries() {
                            let (node, radio) = self.radio_owner[d.to.0 as usize];
                            tasks.push(Task {
                                event,
                                node: node as u32,
                                kind: TaskKind::Receive {
                                    radio: radio as u32,
                                    bytes: d.bytes.clone(),
                                    rssi_dbm: d.rssi_dbm,
                                    channel: d.channel,
                                },
                            });
                            if !touched.contains(&node) {
                                touched.push(node);
                            }
                        }
                        for &node in &touched {
                            tasks.push(Task {
                                event,
                                node: node as u32,
                                kind: TaskKind::TouchPoll,
                            });
                        }
                    }
                    Event::NodePoll { node } => tasks.push(Task {
                        event,
                        node,
                        kind: TaskKind::PollEvent,
                    }),
                    Event::WireDeliver(f) => tasks.push(Task {
                        event,
                        node: f.node,
                        kind: TaskKind::HostRx {
                            iface: f.iface,
                            bytes: f.bytes,
                        },
                    }),
                    Event::BridgeDeliver(f) => tasks.push(Task {
                        event,
                        node: f.node,
                        kind: TaskKind::BridgeRx {
                            radio: f.radio,
                            bytes: f.bytes,
                        },
                    }),
                    Event::TapDeliver(f) => tasks.push(Task {
                        event,
                        node: f.node,
                        kind: TaskKind::Tap { bytes: f.bytes },
                    }),
                }
                ev_meta.push((shard, kind, tasks.len() as u32));
            }
            touched.clear();
            self.touched_scratch = touched;

            // Group tasks into per-node chains (execution units).
            let mut chains: Vec<Vec<u32>> = Vec::new();
            for (ti, task) in tasks.iter().enumerate() {
                let ci = self.chain_map[task.node as usize];
                if ci == u32::MAX {
                    self.chain_map[task.node as usize] = chains.len() as u32;
                    chains.push(vec![ti as u32]);
                } else {
                    chains[ci as usize].push(ti as u32);
                }
            }
            for task in &tasks {
                self.chain_map[task.node as usize] = u32::MAX;
            }

            // ---- Exec: run chains on the pool. Node work never
            // touches shared state (the mutation-epoch check enforces
            // the medium half of that claim).
            let epoch = self.medium.mutation_epoch();
            let view = NodesView {
                ptr: self.nodes.as_mut_ptr(),
            };
            let tasks_ref = &tasks;
            let wall0 = profile::now();
            let results: Vec<Vec<(u32, u64, Vec<Op>)>> = chains
                .par_iter()
                .map(|chain| {
                    EXEC_SCRATCH.with(|cell| {
                        let scratch = &mut *cell.borrow_mut();
                        let mut out = Vec::with_capacity(chain.len());
                        for &ti in chain {
                            let task = &tasks_ref[ti as usize];
                            // Safety: this chain is the unique owner of
                            // `task.node` for the whole region.
                            let node = unsafe { &mut *view.node(task.node as usize) };
                            let mut ops = Vec::new();
                            let c0 = profile::now();
                            let mut cx = NodeCtx {
                                now: t,
                                idx: task.node as usize,
                                node,
                                ops: &mut ops,
                                scratch,
                            };
                            match &task.kind {
                                TaskKind::Receive {
                                    radio,
                                    bytes,
                                    rssi_dbm,
                                    channel,
                                } => {
                                    cx.receive_on_radio(*radio as usize, bytes, *rssi_dbm, *channel)
                                }
                                TaskKind::TouchPoll => cx.poll_node(),
                                TaskKind::PollEvent => {
                                    cx.ops.push(Op::PollFired { node: task.node });
                                    cx.poll_node();
                                }
                                TaskKind::HostRx { iface, bytes } => {
                                    cx.node.host.on_link_rx(t, *iface, bytes);
                                    cx.poll_node();
                                }
                                TaskKind::BridgeRx { radio, bytes } => {
                                    cx.bridge_wired_rx(*radio as usize, bytes);
                                    cx.poll_node();
                                }
                                TaskKind::Tap { bytes } => {
                                    if let Some(mon) = &mut cx.node.wired_monitor {
                                        mon.inspect(t, bytes);
                                    }
                                    if let Some(tap) = &mut cx.node.wire_tap {
                                        tap.frames.push((t, bytes.clone()));
                                    }
                                }
                            }
                            let cycles = profile::now().wrapping_sub(c0);
                            out.push((ti, cycles, ops));
                        }
                        out
                    })
                })
                .collect();
            self.prof.record(Phase::ExecWall, wall0);
            debug_assert_eq!(
                self.medium.mutation_epoch(),
                epoch,
                "parallel node work must not touch the medium"
            );

            // Merge per-task results back into canonical task order.
            let ntasks = tasks.len();
            let mut ops_by_task: Vec<Vec<Op>> = (0..ntasks).map(|_| Vec::new()).collect();
            let mut cycles_by_task: Vec<u64> = vec![0; ntasks];
            for chain in results {
                for (ti, cycles, ops) in chain {
                    cycles_by_task[ti as usize] = cycles;
                    ops_by_task[ti as usize] = ops;
                }
            }
            // Cumulative worker-time attribution, global and per-shard.
            for (ti, task) in tasks.iter().enumerate() {
                let phase = match task.kind {
                    TaskKind::Receive { .. } => Phase::Deliver,
                    _ => Phase::Poll,
                };
                let shard = ev_meta[task.event as usize].0;
                self.prof.add_cycles(phase, cycles_by_task[ti], 1, 1);
                self.prof
                    .add_shard_cycles(shard, phase, cycles_by_task[ti], 1);
            }

            // ---- Barrier: commit in global (time, seq) order. ----
            // Retune-hazard audit (debug builds): the split above trusts
            // the `*_may_retune` predicates, so a prefix event that does
            // commit a `SetChannel` means one of them lied, and any later
            // frozen plan was computed against a stale channel map.
            let mut retuned = false;
            let mut task_cursor = 0usize;
            for (i, &(shard, kind, task_end)) in ev_meta.iter().enumerate() {
                self.current_shard = shard;
                let c0 = profile::now();
                if let Some(plan) = plans_by_event[i].take() {
                    debug_assert!(
                        !retuned,
                        "retune hazard: a frozen plan commits after a prefix event's \
                         SetChannel at t={t:?}; a *_may_retune predicate returned false"
                    );
                    self.sim_plans_committed += 1;
                    let t0 = profile::now();
                    let _ = self.medium.commit_complete(plan);
                    self.prof.record(Phase::MediumCommit, t0);
                }
                let t0 = profile::now();
                let mut nops = 0u64;
                while task_cursor < task_end as usize {
                    nops += ops_by_task[task_cursor].len() as u64;
                    for op in std::mem::take(&mut ops_by_task[task_cursor]) {
                        if cfg!(debug_assertions) {
                            retuned |= matches!(op, Op::SetChannel { .. });
                        }
                        self.commit_op(t, op);
                    }
                    task_cursor += 1;
                }
                if nops > 0 {
                    self.prof.record_many(Phase::OpCommit, t0, nops);
                }
                let barrier_cycles = profile::now().wrapping_sub(c0);
                let tstart = if i == 0 { 0 } else { ev_meta[i - 1].2 as usize };
                let task_cycles: u64 = cycles_by_task[tstart..task_end as usize].iter().sum();
                self.prof
                    .add_kind_cycles(kind, barrier_cycles.wrapping_add(task_cycles), 1, 1);
            }
        }

        // Suffix (the whole burst when split == 0): classic serial
        // dispatch; speculative plans go through validate-or-replan.
        for p in plans_by_event.into_iter().flatten() {
            plans.push((p.handle(), p));
        }
        for (ev, shard) in burst.drain(..) {
            self.current_shard = shard;
            let kind = self.prof_kinds[event_kind(&ev)];
            let t0 = profile::now();
            self.dispatch_event(t, ev, plans);
            self.prof.record_kind(kind, t0);
        }
        self.current_shard = 0;
        debug_assert!(plans.is_empty(), "burst left unconsumed plans");
        plans.clear();
        true
    }

    /// The sharded loop: conservative lockstep windows. Each window
    /// `[head, head + window]` first *plans* every pending `TxComplete`
    /// inside it in parallel on the rayon pool (`plan_complete` is pure,
    /// `&Medium`), then replays all events serially in global
    /// `(time, seq)` order, committing plans that survived conflict
    /// checks and transparently replanning the rest. See DESIGN.md §15
    /// for the bit-identity argument, and §17 for the parallel burst
    /// executor layered on top.
    fn run_windows(&mut self, deadline: SimTime, plans: &mut Vec<(TxHandle, TxPlan)>) {
        // Scratch buffers reused across every burst in the run.
        let mut burst: Vec<(Event, usize)> = Vec::new();
        let mut todo: Vec<TxHandle> = Vec::new();
        // Speculative planning is a bet: compute completions ahead of
        // the replay and hope the channel-version guard lets them
        // commit. On a 1-thread pool the bet can never pay — the plans
        // are computed serially in the same thread that would have run
        // `complete_tx` anyway, and every stale one is paid for twice.
        // Plan only when the pool can genuinely overlap the work.
        let plan_on_pool = rayon::current_num_threads() > 1;
        self.prof.ensure_shards(self.queue.num_shards());
        while let Some(head) = self.queue.peek_time() {
            if head > deadline {
                break;
            }
            let window_end = (head + self.window).min(deadline);
            self.sim_windows += 1;
            let occupancy = (0..self.queue.num_shards())
                .map(|s| self.queue.shard_len(s))
                .max()
                .unwrap_or(0) as u64;
            self.sim_shard_occupancy_max = self.sim_shard_occupancy_max.max(occupancy);

            // Replay the window burst by burst. A burst is every event
            // pending at one instant `t` — the unit at which parallel
            // planning actually pays: synchronized completions (beacon
            // storms, lockstep traffic) land at the same instant, and a
            // burst cannot invalidate its own plans except through a
            // same-instant `begin_tx`, which the channel-version guard
            // catches at commit. Planning any further ahead is wasted
            // work whenever dispatch triggers responses: each response's
            // `begin_tx` is a new interferer for every later in-flight
            // completion, staling the rest of the window wholesale.
            loop {
                // Drain the next instant whole. Dispatches may schedule
                // *new* events at `t` (immediate polls); those carry
                // higher seqs, so the outer loop picks them up as the
                // next burst — still in global (time, seq) order. One
                // probe pair, `burst.len()` pops: the per-pop count must
                // stay comparable with the serial loop's.
                let t0 = profile::now();
                let drained = self.queue.pop_instant_into(window_end, &mut burst);
                self.prof
                    .record_many(Phase::QueuePop, t0, burst.len() as u64);
                let Some(t) = drained else { break };

                // Large bursts take the parallel executor: node work on
                // the pool, shared effects op-committed at the barrier.
                if plan_on_pool && self.dispatch_burst_parallel(t, &mut burst, plans) {
                    continue;
                }

                // Plan phase: compute this burst's completions on the
                // pool. A lone completion is planned serially at
                // dispatch — no pool round-trip for nothing.
                todo.extend(burst.iter().filter_map(|(ev, _)| match ev {
                    Event::TxComplete { tx } => Some(*tx),
                    _ => None,
                }));
                if plan_on_pool && todo.len() > 1 {
                    let t0 = profile::now();
                    let medium = &self.medium;
                    let computed: Vec<TxPlan> = todo
                        .par_iter()
                        .map(|&tx| medium.plan_complete(t, tx))
                        .collect();
                    self.sim_plans_parallel += computed.len() as u64;
                    plans.extend(computed.into_iter().map(|p| (p.handle(), p)));
                    self.prof.record(Phase::MediumPlan, t0);
                }

                todo.clear();

                // Commit phase: strict global (time, seq) replay.
                for (ev, shard) in burst.drain(..) {
                    self.current_shard = shard;
                    let kind = self.prof_kinds[event_kind(&ev)];
                    let t0 = profile::now();
                    self.dispatch_event(t, ev, plans);
                    self.prof.record_kind(kind, t0);
                }
                self.current_shard = 0;
                debug_assert!(plans.is_empty(), "burst left unconsumed plans");
                plans.clear();
            }
        }
    }

    /// Dispatch one event. `plans` holds precomputed completion plans
    /// from the current lockstep window (always empty in serial mode);
    /// a plan invalidated by an intervening mutation is recomputed here,
    /// on the same pure code path the serial loop uses.
    fn dispatch_event(&mut self, now: SimTime, ev: Event, plans: &mut Vec<(TxHandle, TxPlan)>) {
        let mut ops = std::mem::take(&mut self.ops_scratch);
        let mut scratch = std::mem::take(&mut self.node_scratch);
        debug_assert!(ops.is_empty());
        match ev {
            Event::TxComplete { tx } => {
                // Bursts are small (usually 0 or 1 plans), so a linear
                // scan beats hashing the handle.
                let plan = plans
                    .iter()
                    .position(|(h, _)| *h == tx)
                    .map(|i| plans.swap_remove(i).1);
                let deliveries = match plan {
                    Some(plan) if self.medium.plan_is_current(&plan) => {
                        self.sim_plans_committed += 1;
                        let t0 = profile::now();
                        let d = self.medium.commit_complete(plan);
                        self.prof.record(Phase::MediumCommit, t0);
                        d
                    }
                    stale => {
                        // complete_tx == plan_complete + commit_complete;
                        // split here so each phase is attributed.
                        if stale.is_some() {
                            self.sim_plans_stale += 1;
                        }
                        let t0 = profile::now();
                        let plan = self.medium.plan_complete(now, tx);
                        self.prof.record(Phase::MediumPlan, t0);
                        let t0 = profile::now();
                        let d = self.medium.commit_complete(plan);
                        self.prof.record(Phase::MediumCommit, t0);
                        d
                    }
                };
                let t0 = profile::now();
                let mut touched = std::mem::take(&mut self.touched_scratch);
                debug_assert!(touched.is_empty());
                for d in deliveries {
                    let (node, radio) = self.radio_owner[d.to.0 as usize];
                    NodeCtx {
                        now,
                        idx: node,
                        node: &mut self.nodes[node],
                        ops: &mut ops,
                        scratch: &mut scratch,
                    }
                    .receive_on_radio(radio, &d.bytes, d.rssi_dbm, d.channel);
                    if !touched.contains(&node) {
                        touched.push(node);
                    }
                }
                self.prof.record(Phase::Deliver, t0);
                let t0 = profile::now();
                for &node in &touched {
                    NodeCtx {
                        now,
                        idx: node,
                        node: &mut self.nodes[node],
                        ops: &mut ops,
                        scratch: &mut scratch,
                    }
                    .poll_node();
                }
                self.prof.record(Phase::Poll, t0);
                touched.clear();
                self.touched_scratch = touched;
            }
            Event::NodePoll { node } => {
                let node = node as usize;
                // With the cancel discipline there is exactly one
                // pending entry and it fires at `scheduled_poll`. The
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

    /// Apply one deferred op. Called in emission order at an event's (or
    /// a burst barrier's) commit point; the sequence of medium
    /// mutations, queue inserts, world-RNG draws and log appends this
    /// produces is exactly what the old inline code did.
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
                let n = &mut self.nodes[node as usize];
                debug_assert_eq!(n.scheduled_poll, now);
                n.scheduled_poll = SimTime::FOREVER;
                n.poll_event = None;
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
        if self.nodes[node].scheduled_poll <= at {
            return; // an earlier-or-equal poll is already pending
        }
        self.commit_schedule_poll(node, at);
    }

    /// Move the node's pending poll to `at`: cancel the outstanding
    /// queue entry (if any) and insert the new one, maintaining the
    /// ≤ 1-pending-poll-per-node invariant. Callers have already decided
    /// the move is wanted; no earlier-poll gate here.
    fn commit_schedule_poll(&mut self, node: usize, at: SimTime) {
        if let Some((shard, id)) = self.nodes[node].poll_event.take() {
            self.queue.cancel_on(shard, id);
        }
        self.nodes[node].scheduled_poll = at;
        let handle = self.schedule_event(at, Event::NodePoll { node: node as u32 });
        self.nodes[node].poll_event = Some(handle);
    }

    /// Schedule an immediate poll of a node — required after mutating a
    /// host from outside the event loop (e.g. `host_mut(n).ping(…)`) on a
    /// node that has no periodic wake source of its own. An outstanding
    /// later poll is cancelled rather than left as a redundant queue
    /// entry (it would dispatch as a pure no-op poll).
    pub fn kick(&mut self, n: NodeId) {
        let now = self.queue.now();
        if self.nodes[n.0].scheduled_poll <= now {
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
        w.add_wired_monitor(
            m,
            sw,
            rogue_detect::wired::WiredMonitor::new([MacAddr::local(1)]),
        );
        // a pings b: ARP + echo both cross the switch.
        w.host_mut(a)
            .ping(SimTime::ZERO, Ipv4Addr::new(10, 0, 0, 2), 1);
        w.kick(a);
        w.run_until(SimTime::from_millis(100));
        let mon = w.wired_monitor(m).expect("attached");
        assert!(mon.inspected >= 2, "tap must see the exchange");
        // b's MAC is unregistered: exactly one stranger alarm.
        assert_eq!(mon.alarms.len(), 1);
        assert_eq!(mon.alarms[0].subject, MacAddr::local(2));
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
