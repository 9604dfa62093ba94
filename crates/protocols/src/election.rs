//! Section 4.7: randomized leader election (Algorithm 4.4).
//!
//! Every node starts in the same state; at termination exactly one node
//! is in the `leader` state w.h.p., after `O(n log n)` synchronous rounds.
//! The algorithm composes most of the paper's machinery:
//!
//! * **Phases** (mod-3 counter, Awerbuch–Ostrovsky style): each phase,
//!   every *remaining* node picks a uniform label in `{0, 1}`.
//! * **BFS clusters** (Section 4.3 labels): every remaining node grows a
//!   cluster carrying its label; eliminated nodes join the first cluster
//!   to reach them.
//! * **Conflict detection**: adjacent nodes propagating different cluster
//!   labels, or inconsistent recolouring (below), prove ≥ 2 roots exist
//!   and trigger an `NP_i` broadcast (`i` = largest label known). On
//!   receiving `NP_1`, a remaining label-0 node is eliminated — Claim 4.1
//!   gives each non-unique remainer elimination probability ≥ 1/4 per
//!   phase, so Θ(log n) phases suffice w.h.p.
//! * **Dolev recolouring**: each root recolours itself randomly every
//!   round; colours flow along the BFS successor relation. In a
//!   single-root phase the waves are lockstep (no false alarms); merged
//!   same-label clusters produce colour disagreements w.h.p. (Claim 4.2).
//! * **Milgram agent timer** (Section 4.5): a root whose BFS looks
//!   complete releases an agent; the traversal's `2n - 2` moves let the
//!   root "wait ≈ n rounds" without being able to count to `n`, driving
//!   the failure probability to `2^{-Ω(n)}`. When the agent returns, the
//!   root declares itself leader.
//!
//! **Concretization choices** (the paper is prose here):
//!
//! 1. Recolouring runs from phase start rather than from BFS completion.
//!    This is a strict strengthening that guarantees per-phase liveness:
//!    merged same-label clusters can deadlock the BFS-completion wave
//!    (successor cycles), and continuous recolouring detects them anyway.
//! 2. Colour consistency is checked against predecessors *and*
//!    same-level neighbours. In a single-root synchronous phase both are
//!    provably lockstep-equal (no false positives); the same-level check
//!    is what catches two *adjacent same-label roots*, which have no
//!    common successors.
//! 3. Premature leaders (paper: "in a long enough path graph, multiple
//!    nodes will likely enter the leader state prematurely") are demoted
//!    when the next `NP` wave advances their phase.

use fssga_engine::{NeighborView, Network, Protocol, Sensitive, SensitivityClass, StateSpace};
use fssga_graph::rng::Xoshiro256;
use fssga_graph::{Graph, NodeId};

use crate::traversal::Elect as TravElect;
use crate::traversal::{self, HandPhase, Hood, TStatus, TravState};

/// `NP_i` broadcast state.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Np {
    /// Not currently propagating a new-phase order.
    None,
    /// New phase; largest label known is 0.
    Np0,
    /// New phase; largest label known is 1.
    Np1,
}

/// BFS status within a cluster (Found is unused: clusters have no
/// targets, completion is the all-failed wave reaching the root).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum BStat {
    /// Subtree still growing.
    Waiting,
    /// Subtree exhausted.
    Failed,
}

/// A recolouring colour.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Colour {
    /// Not yet coloured this phase.
    Blank,
    /// "Red".
    C0,
    /// "Blue".
    C1,
}

/// Cluster membership.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Member {
    /// Not yet absorbed by any cluster this phase.
    Out,
    /// Member of a cluster.
    In {
        /// The root's label bit, flooded with the cluster.
        clabel: u8,
        /// BFS distance to the root, mod 3.
        dist: u8,
        /// Completion status.
        status: BStat,
        /// Current recolouring wave value.
        colour: Colour,
        /// True for exactly one round after joining. Neighbours may only
        /// join through *mature* members; this halves the growth speed,
        /// so the (speed-1) phase wave always outruns the cluster and
        /// distance layers never overlap — the residues an unjoined node
        /// sees are provably unambiguous in a single-root phase.
        fresh: bool,
    },
}

/// The full election state.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ElectState {
    /// Phase counter mod 3.
    pub phase: u8,
    /// Still a candidate?
    pub remain: bool,
    /// This phase's label (valid iff `remain`).
    pub label: u8,
    /// NP broadcast state.
    pub np: Np,
    /// Declared leadership (may be premature; see module docs).
    pub leader: bool,
    /// Cluster membership.
    pub member: Member,
    /// Milgram-agent sub-state (Section 4.5 automaton).
    pub trav: TravState,
}

impl ElectState {
    /// The uniform initial state: everyone remaining, `NP_0` pending so
    /// the very first round performs the paper's "at start of algorithm,
    /// pick a label and begin BFS" uniformly.
    pub fn init() -> Self {
        ElectState {
            phase: 0,
            remain: true,
            label: 0,
            np: Np::Np0,
            leader: false,
            member: Member::Out,
            trav: TravState {
                originator: false,
                status: TStatus::Blank(TravElect::Idle),
            },
        }
    }
}

const MEMBER_COUNT: usize = 1 + 2 * 3 * 2 * 3 * 2; // Out + clabel×dist×status×colour×fresh

fn member_index(m: Member) -> usize {
    match m {
        Member::Out => 0,
        Member::In {
            clabel,
            dist,
            status,
            colour,
            fresh,
        } => {
            let s = match status {
                BStat::Waiting => 0,
                BStat::Failed => 1,
            };
            let c = match colour {
                Colour::Blank => 0,
                Colour::C0 => 1,
                Colour::C1 => 2,
            };
            1 + (((clabel as usize * 3 + dist as usize) * 2 + s) * 3 + c) * 2 + usize::from(fresh)
        }
    }
}

fn member_from_index(i: usize) -> Member {
    if i == 0 {
        return Member::Out;
    }
    let i = i - 1;
    let fresh = i % 2 == 1;
    let i = i / 2;
    let colour = match i % 3 {
        0 => Colour::Blank,
        1 => Colour::C0,
        _ => Colour::C1,
    };
    let rest = i / 3;
    let status = if rest.is_multiple_of(2) {
        BStat::Waiting
    } else {
        BStat::Failed
    };
    let rest = rest / 2;
    Member::In {
        clabel: (rest / 3) as u8,
        dist: (rest % 3) as u8,
        status,
        colour,
        fresh,
    }
}

impl StateSpace for ElectState {
    // phase(3) × remain(2) × label(2) × np(3) × leader(2) × member × trav
    const COUNT: usize = 3 * 2 * 2 * 3 * 2 * MEMBER_COUNT * TravState::COUNT;

    fn index(self) -> usize {
        let np = match self.np {
            Np::None => 0,
            Np::Np0 => 1,
            Np::Np1 => 2,
        };
        let mut i = self.phase as usize;
        i = i * 2 + usize::from(self.remain);
        i = i * 2 + self.label as usize;
        i = i * 3 + np;
        i = i * 2 + usize::from(self.leader);
        i = i * MEMBER_COUNT + member_index(self.member);
        i = i * TravState::COUNT + self.trav.index();
        i
    }

    fn from_index(i: usize) -> Self {
        assert!(i < Self::COUNT);
        let trav = TravState::from_index(i % TravState::COUNT);
        let i = i / TravState::COUNT;
        let member = member_from_index(i % MEMBER_COUNT);
        let i = i / MEMBER_COUNT;
        let leader = i % 2 == 1;
        let i = i / 2;
        let np = match i % 3 {
            0 => Np::None,
            1 => Np::Np0,
            _ => Np::Np1,
        };
        let i = i / 3;
        let label = (i % 2) as u8;
        let i = i / 2;
        let remain = i % 2 == 1;
        let phase = (i / 2) as u8;
        ElectState {
            phase,
            remain,
            label,
            np,
            leader,
            member,
            trav,
        }
    }
}

/// What one pass over the (same-phase) neighbourhood reveals.
struct Scan {
    any_behind: bool,
    any_ahead: bool,
    np_seen: Np,
    /// Cluster labels present among member neighbours.
    clabels: [bool; 2],
    /// Any label-1 evidence (member clabel 1 or remaining neighbour label 1).
    label1_known: bool,
    /// Per (clabel, dist-residue): which colours are present.
    colours: [[[bool; 2]; 3]; 2], // [clabel][dist][C0/C1]
    /// Per (clabel, dist-residue): any Waiting member.
    waiting: [[bool; 3]; 2],
    /// Per (clabel, dist-residue): any *mature* member (join sources).
    mature: [[bool; 3]; 2],
    /// Any same-phase unclustered neighbour.
    any_out: bool,
    /// Projected traversal neighbourhood.
    hood: Hood,
}

fn scan(own: &ElectState, nbrs: &NeighborView<'_, ElectState>) -> Scan {
    let p = own.phase;
    let behind = (p + 2) % 3;
    let ahead = (p + 1) % 3;
    let mut s = Scan {
        any_behind: false,
        any_ahead: false,
        np_seen: Np::None,
        clabels: [false; 2],
        label1_known: false,
        colours: [[[false; 2]; 3]; 2],
        waiting: [[false; 3]; 2],
        mature: [[false; 3]; 2],
        any_out: false,
        hood: Hood {
            any_arm: false,
            arm_or_hand: 0,
            any_blank: false,
            hand_phase: None,
            tails: 0,
        },
    };
    let mut hand_key: Option<usize> = None;
    for ps in nbrs.present_states() {
        if ps.phase == behind {
            s.any_behind = true;
            continue;
        }
        if ps.phase == ahead {
            s.any_ahead = true;
            continue;
        }
        // Same phase.
        match ps.np {
            Np::Np1 => s.np_seen = Np::Np1,
            Np::Np0 => {
                if s.np_seen == Np::None {
                    s.np_seen = Np::Np0;
                }
            }
            Np::None => {}
        }
        if ps.remain && ps.label == 1 {
            s.label1_known = true;
        }
        match ps.member {
            Member::Out => s.any_out = true,
            Member::In {
                clabel,
                dist,
                status,
                colour,
                fresh,
            } => {
                let cl = clabel as usize;
                s.clabels[cl] = true;
                if clabel == 1 {
                    s.label1_known = true;
                }
                match colour {
                    Colour::C0 => s.colours[cl][dist as usize][0] = true,
                    Colour::C1 => s.colours[cl][dist as usize][1] = true,
                    Colour::Blank => {}
                }
                if status == BStat::Waiting {
                    s.waiting[cl][dist as usize] = true;
                }
                if !fresh {
                    s.mature[cl][dist as usize] = true;
                }
            }
        }
        // Traversal projection (same-phase only).
        match ps.trav.status {
            TStatus::Arm => {
                s.hood.any_arm = true;
                s.hood.arm_or_hand = (s.hood.arm_or_hand + nbrs.count_capped(ps, 2)).min(2);
            }
            TStatus::Hand(hp) => {
                // Same max-index tie-break as `traversal::scan`: two
                // hands only coexist post-fault, and the summary must be
                // a pure function of the neighbour multiset.
                let k = ps.index();
                if hand_key.is_none_or(|best| k > best) {
                    hand_key = Some(k);
                    s.hood.hand_phase = Some(hp);
                }
                s.hood.arm_or_hand = (s.hood.arm_or_hand + nbrs.count_capped(ps, 2)).min(2);
            }
            TStatus::Blank(e) => {
                s.hood.any_blank = true;
                if e == TravElect::Tails {
                    s.hood.tails = (s.hood.tails + nbrs.count_capped(ps, 2)).min(2);
                }
            }
            _ => {}
        }
    }
    s
}

/// The checked semantic contract. Election composes phases, clustering
/// and Milgram agents; early on every node is a remaining candidate, so
/// the critical set is Θ(n). Its product state space is by far the
/// largest in the portfolio (~69k states), so the checker's instance
/// family stops at n = 3 with a generous configuration budget.
pub const CONTRACT: crate::contract::SemanticContract = crate::contract::SemanticContract {
    name: "leader-election",
    order_independent: false,
    semilattice: false,
    scheduling: crate::contract::Scheduling::SyncOnly,
    sensitivity: SensitivityClass::Linear,
    max_nodes: 3,
    config_budget: 30_000,
};

/// The election protocol.
pub struct Election;

impl Protocol for Election {
    type State = ElectState;
    const COMPILED: bool = true;
    /// Two independent bits per activation: bit 0 drives label picks and
    /// the agent tournament, bit 1 drives recolouring.
    const RANDOMNESS: u32 = 4;

    fn transition(
        &self,
        own: ElectState,
        nbrs: &NeighborView<'_, ElectState>,
        coin: u32,
    ) -> ElectState {
        let coin_a = coin & 1;
        let coin_b = (coin >> 1) & 1;
        let s = scan(&own, nbrs);

        // 1. A neighbour is a phase behind: hold everything.
        if s.any_behind {
            return own;
        }

        // 2. Advance the phase (own NP set, or a neighbour already ahead).
        if own.np != Np::None || s.any_ahead {
            let remain = if own.np == Np::Np1 && own.remain && own.label == 0 {
                false
            } else {
                own.remain
            };
            let label = if remain { coin_a as u8 } else { 0 };
            let member = if remain {
                Member::In {
                    clabel: label,
                    dist: 0,
                    status: BStat::Waiting,
                    colour: if coin_b == 0 { Colour::C0 } else { Colour::C1 },
                    fresh: true,
                }
            } else {
                Member::Out
            };
            return ElectState {
                phase: (own.phase + 1) % 3,
                remain,
                label,
                np: Np::None,
                leader: false,
                member,
                trav: TravState {
                    originator: remain,
                    status: TStatus::Blank(TravElect::Idle),
                },
            };
        }

        // 3. Conflict detection / NP join.
        let mut conflict = false;
        let mut np_label1 =
            s.np_seen == Np::Np1 || (own.remain && own.label == 1) || s.label1_known;
        if let Member::In { clabel, .. } = own.member {
            // Another cluster label adjacent to mine.
            if s.clabels[1 - clabel as usize] {
                conflict = true;
            }
            if clabel == 1 {
                np_label1 = true;
            }
        } else if s.clabels[0] && s.clabels[1] {
            // Two clusters meeting over an unclustered node.
            conflict = true;
        }
        if let Member::Out = own.member {
            // An unjoined node seeing two distinct mature residues of the
            // same cluster label: impossible in a single-root phase (the
            // maturity rule keeps distance layers two rounds apart), so
            // it proves a second root.
            for cl in 0..2 {
                let layers = (0..3).filter(|&d| s.mature[cl][d]).count();
                if layers >= 2 {
                    conflict = true;
                }
            }
        }
        if let Member::In {
            clabel,
            dist,
            colour,
            ..
        } = own.member
        {
            let cl = clabel as usize;
            let pred = ((dist + 2) % 3) as usize;
            // Predecessor colours disagree.
            if s.colours[cl][pred][0] && s.colours[cl][pred][1] {
                conflict = true;
            }
            // Same-level colours disagree (with each other or with mine).
            let lvl = dist as usize;
            let mut c0 = s.colours[cl][lvl][0];
            let mut c1 = s.colours[cl][lvl][1];
            match colour {
                Colour::C0 => c0 = true,
                Colour::C1 => c1 = true,
                Colour::Blank => {}
            }
            if c0 && c1 {
                conflict = true;
            }
        }
        if conflict || s.np_seen != Np::None {
            return ElectState {
                np: if np_label1 { Np::Np1 } else { Np::Np0 },
                ..own
            };
        }

        // 4. Normal in-phase activity: cluster growth, recolouring,
        //    completion, and the agent sub-automaton.
        let mut next = own;
        match own.member {
            Member::Out => {
                // Join the (single) adjacent cluster, through a mature
                // member; its residue is unambiguous (see conflict rule).
                let joined = match (s.clabels[0], s.clabels[1]) {
                    (true, false) => Some(0u8),
                    (false, true) => Some(1u8),
                    _ => None, // both-labels case was a conflict above
                };
                if let Some(cl) = joined {
                    let d = (0..3u8).find(|&d| s.mature[cl as usize][d as usize]);
                    if let Some(d) = d {
                        next.member = Member::In {
                            clabel: cl,
                            dist: (d + 1) % 3,
                            status: BStat::Waiting,
                            colour: Colour::Blank,
                            fresh: true,
                        };
                    }
                }
            }
            Member::In {
                clabel,
                dist,
                status,
                colour,
                ..
            } => {
                let cl = clabel as usize;
                // Recolouring.
                let new_colour = if own.remain {
                    // Roots recolour randomly every round.
                    if coin_b == 0 {
                        Colour::C0
                    } else {
                        Colour::C1
                    }
                } else {
                    let pred = ((dist + 2) % 3) as usize;
                    match (s.colours[cl][pred][0], s.colours[cl][pred][1]) {
                        (true, false) => Colour::C0,
                        (false, true) => Colour::C1,
                        _ => colour, // none coloured yet (both = conflict above)
                    }
                };
                // Completion wave.
                let succ = ((dist + 1) % 3) as usize;
                let new_status = if status == BStat::Waiting && !s.any_out && !s.waiting[cl][succ] {
                    BStat::Failed
                } else {
                    status
                };
                next.member = Member::In {
                    clabel,
                    dist,
                    status: new_status,
                    colour: new_colour,
                    fresh: false, // mature after one round
                };
                // Agent release: a root whose BFS looks complete and who
                // has not yet released an agent starts the Milgram timer.
                if own.remain
                    && status == BStat::Failed
                    && own.trav.status == TStatus::Blank(TravElect::Idle)
                    && own.trav.originator
                {
                    next.trav = TravState {
                        originator: true,
                        status: TStatus::Hand(HandPhase::Settle1),
                    };
                    return next;
                }
            }
        }
        // Agent sub-automaton (everyone participates).
        next.trav = traversal::step(own.trav, &s.hood, coin_a);
        // Leader declaration: the agent returned and retracted fully.
        if own.remain && own.trav.originator && next.trav.status == TStatus::Visited {
            next.leader = true;
        }
        if own.leader {
            next.leader = true; // sticky within the phase
        }
        next
    }
}

/// Per-round aggregate snapshot, for instrumentation and the experiments.
#[derive(Clone, Debug)]
pub struct ElectionStats {
    /// Synchronous rounds executed.
    pub rounds: u64,
    /// Remaining candidates.
    pub remaining: usize,
    /// Current leaders (should be 1 at termination).
    pub leaders: Vec<NodeId>,
    /// Maximum phase advances observed at any node.
    pub max_phase_advances: u64,
}

/// The outcome of an election run.
#[derive(Clone, Debug)]
pub struct ElectionRun {
    /// Rounds until termination (single remaining candidate who declared
    /// leadership), or the budget if not reached.
    pub rounds: u64,
    /// The elected leader, if termination was reached.
    pub leader: Option<NodeId>,
    /// Per-phase count of remaining candidates (phase advance moments of
    /// node 0, used by the Claim 4.1 experiment).
    pub remaining_per_phase: Vec<usize>,
    /// Total phase advances of node 0 (≈ number of phases).
    pub phases: u64,
    /// Rounds spent in each completed phase (node-0 advance to advance) —
    /// Claim 4.2 predicts O(n) per non-final phase.
    pub phase_durations: Vec<u64>,
}

/// Drives [`Election`] to termination.
pub struct ElectionHarness {
    net: Network<Election>,
    phase_advances: Vec<u64>,
}

impl ElectionHarness {
    /// All nodes start in the identical [`ElectState::init`] state.
    pub fn new(g: &Graph) -> Self {
        let net = Network::new(g, Election, |_| ElectState::init());
        let n = g.n();
        Self {
            net,
            phase_advances: vec![0; n],
        }
    }

    /// Access to the network.
    pub fn network_mut(&mut self) -> &mut Network<Election> {
        &mut self.net
    }

    /// Current aggregate stats.
    pub fn stats(&self) -> ElectionStats {
        ElectionStats {
            rounds: self.net.metrics.rounds,
            remaining: self.net.states().iter().filter(|s| s.remain).count(),
            leaders: (0..self.net.n() as NodeId)
                .filter(|&v| self.net.state(v).leader)
                .collect(),
            max_phase_advances: self.phase_advances.iter().copied().max().unwrap_or(0),
        }
    }

    /// Runs until a unique remaining candidate has declared leadership,
    /// or `max_rounds`.
    pub fn run(&mut self, max_rounds: u64, rng: &mut Xoshiro256) -> ElectionRun {
        let mut remaining_per_phase = vec![self.net.states().iter().filter(|s| s.remain).count()];
        let mut phase_durations = Vec::new();
        let mut last_advance_round = 0u64;
        let mut rounds = 0;
        while rounds < max_rounds {
            let before: Vec<u8> = self.net.states().iter().map(|s| s.phase).collect();
            self.net.sync_step(rng);
            rounds += 1;
            for (v, &ph) in before.iter().enumerate() {
                if self.net.states()[v].phase != ph {
                    self.phase_advances[v] += 1;
                    if v == 0 {
                        remaining_per_phase
                            .push(self.net.states().iter().filter(|s| s.remain).count());
                        phase_durations.push(rounds - last_advance_round);
                        last_advance_round = rounds;
                    }
                }
            }
            let stats = self.stats();
            if stats.remaining == 1 && stats.leaders.len() == 1 {
                let leader = stats.leaders[0];
                if self.net.state(leader).remain {
                    return ElectionRun {
                        rounds,
                        leader: Some(leader),
                        remaining_per_phase,
                        phases: self.phase_advances[0],
                        phase_durations,
                    };
                }
            }
        }
        ElectionRun {
            rounds,
            leader: None,
            remaining_per_phase,
            phases: self.phase_advances[0],
            phase_durations,
        }
    }
}

/// Election composes phases, clustering and agent traversals; losing any
/// remaining candidate (or a declared leader) can change the elected
/// outcome, and early on *every* node is a remaining candidate — a Θ(n)
/// critical set.
///
/// The Milgram agent makes three more kinds of node critical, as the
/// single-fault sweep in `tests/sensitivity_ranking.rs` shows: the hand,
/// every arm node (the agent's only way back to its candidate), and the
/// hand's blank neighbours. Those are its tournament's participants: once
/// the hand has started a tournament it waits for a tails, so killing the
/// last participant wedges it. `ByArm` and `Visited` nodes are not
/// critical.
impl Sensitive for ElectionHarness {
    fn algorithm(&self) -> &'static str {
        "leader-election"
    }

    fn sensitivity_class(&self) -> SensitivityClass {
        SensitivityClass::Linear
    }

    fn critical_set(&self) -> Vec<NodeId> {
        let trav = |v: NodeId| self.net.state(v).trav;
        let mut crit: Vec<NodeId> = (0..self.net.n() as NodeId)
            .filter(|&v| {
                let s = self.net.state(v);
                s.remain || s.leader || matches!(s.trav.status, TStatus::Arm | TStatus::Hand(_))
            })
            .collect();
        let participants: Vec<NodeId> = crit
            .iter()
            .filter(|&&v| trav(v).is_hand())
            .flat_map(|&hand| self.net.graph().neighbors(hand).iter().copied())
            .filter(|&w| matches!(trav(w).status, TStatus::Blank(_)))
            .collect();
        crit.extend(participants);
        crit.sort_unstable();
        crit.dedup();
        crit
    }
}

/// Diagnostic: replays the conflict-detection logic of the transition for
/// every node and reports which condition (if any) fires. Used by tests
/// and the experiment harness to explain phase churn.
pub fn find_conflicts(net: &Network<Election>) -> Vec<(NodeId, String)> {
    let mut out = Vec::new();
    for v in 0..net.n() as NodeId {
        let own = net.state(v);
        if !net.can_activate(v) {
            continue;
        }
        let behind = (own.phase + 2) % 3;
        let ahead = (own.phase + 1) % 3;
        let mut clabels = [false; 2];
        let mut colours = [[[false; 2]; 3]; 2];
        let mut np_seen = false;
        let mut skip = false;
        for &w in net.graph().neighbors(v) {
            let ns = net.state(w);
            if ns.phase == behind || ns.phase == ahead {
                skip = true;
                continue;
            }
            if ns.np != Np::None {
                np_seen = true;
            }
            if let Member::In {
                clabel,
                dist,
                colour,
                ..
            } = ns.member
            {
                clabels[clabel as usize] = true;
                match colour {
                    Colour::C0 => colours[clabel as usize][dist as usize][0] = true,
                    Colour::C1 => colours[clabel as usize][dist as usize][1] = true,
                    Colour::Blank => {}
                }
            }
        }
        if skip {
            continue;
        }
        if np_seen {
            out.push((v, "np-neighbor".into()));
        }
        match own.member {
            Member::In {
                clabel,
                dist,
                colour,
                ..
            } => {
                if clabels[1 - clabel as usize] {
                    out.push((v, "label-mismatch".into()));
                }
                let cl = clabel as usize;
                let pred = ((dist + 2) % 3) as usize;
                if colours[cl][pred][0] && colours[cl][pred][1] {
                    out.push((v, format!("pred-colour d={dist}")));
                }
                let lvl = dist as usize;
                let mut c0 = colours[cl][lvl][0];
                let mut c1 = colours[cl][lvl][1];
                match colour {
                    Colour::C0 => c0 = true,
                    Colour::C1 => c1 = true,
                    Colour::Blank => {}
                }
                if c0 && c1 {
                    out.push((v, format!("level-colour d={dist} own={colour:?}")));
                }
            }
            Member::Out => {
                if clabels[0] && clabels[1] {
                    out.push((v, "join-two-labels".into()));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fssga_graph::generators;

    #[test]
    fn state_space_roundtrip() {
        // COUNT is ~34k; check a stride of indices plus the init state.
        for i in (0..ElectState::COUNT).step_by(97) {
            assert_eq!(ElectState::from_index(i).index(), i);
        }
        let s = ElectState::init();
        assert_eq!(ElectState::from_index(s.index()), s);
    }

    fn elect(g: &Graph, seed: u64, budget: u64) -> ElectionRun {
        let mut h = ElectionHarness::new(g);
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let run = h.run(budget, &mut rng);
        assert!(
            run.leader.is_some(),
            "no leader within {budget} rounds on n={} (phases: {})",
            g.n(),
            run.phases
        );
        run
    }

    #[test]
    fn two_nodes_elect_one_leader() {
        let run = elect(&generators::path(2), 101, 200_000);
        assert!(run.leader.is_some());
    }

    #[test]
    fn path_graph_elects() {
        let run = elect(&generators::path(8), 102, 400_000);
        assert!(run.leader.unwrap() < 8);
    }

    #[test]
    fn cycle_elects() {
        elect(&generators::cycle(9), 103, 400_000);
    }

    #[test]
    fn grid_elects() {
        elect(&generators::grid(4, 4), 104, 400_000);
    }

    #[test]
    fn complete_graph_elects() {
        elect(&generators::complete(8), 105, 400_000);
    }

    #[test]
    fn star_elects() {
        elect(&generators::star(9), 106, 400_000);
    }

    #[test]
    fn random_graphs_elect_unique_leader() {
        let mut rng = Xoshiro256::seed_from_u64(107);
        for trial in 0..5u64 {
            let g = generators::connected_gnp(12, 0.2, &mut rng);
            let run = elect(&g, 1070 + trial, 500_000);
            assert!(run.leader.is_some(), "trial {trial}");
        }
    }

    #[test]
    fn leaders_are_uniformly_spread_over_symmetric_graphs() {
        // On a vertex-transitive graph every node should win sometimes.
        let g = generators::cycle(5);
        let mut winners = std::collections::HashSet::new();
        for seed in 0..25u64 {
            let run = elect(&g, 200 + seed, 300_000);
            winners.insert(run.leader.unwrap());
        }
        assert!(
            winners.len() >= 3,
            "symmetry breaking should spread winners: {winners:?}"
        );
    }

    #[test]
    fn eliminations_make_progress() {
        // Claim 4.1 in aggregate: with several candidates, the remaining
        // count strictly drops across phases until 1.
        let g = generators::grid(3, 3);
        let run = elect(&g, 108, 500_000);
        let first = run.remaining_per_phase[0];
        assert_eq!(first, 9, "everyone starts remaining");
        assert_eq!(*run.remaining_per_phase.last().unwrap(), 1);
    }

    #[test]
    fn phases_scale_logarithmically() {
        // Θ(log n) phases w.h.p.: n=16 should finish in a modest number
        // of phases.
        let g = generators::connected_gnp(16, 0.25, &mut Xoshiro256::seed_from_u64(9));
        let run = elect(&g, 109, 1_000_000);
        assert!(
            run.phases <= 60,
            "Θ(log n) phases expected, got {}",
            run.phases
        );
    }

    #[test]
    fn termination_is_stable() {
        // After the leader is declared with a single remainer, extra
        // rounds never create a second leader or un-elect the first.
        let g = generators::cycle(6);
        let mut h = ElectionHarness::new(&g);
        let mut rng = Xoshiro256::seed_from_u64(110);
        let run = h.run(300_000, &mut rng);
        let leader = run.leader.expect("elects");
        for _ in 0..500 {
            h.network_mut().sync_step(&mut rng);
            let stats = h.stats();
            assert_eq!(stats.leaders, vec![leader]);
            assert_eq!(stats.remaining, 1);
        }
    }
}
