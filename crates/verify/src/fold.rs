//! Support-fold checking.
//!
//! A protocol that declares a [`SupportFold`](fssga_engine::SupportFold)
//! (via `Protocol::FOLD`) lets the compiled kernel skip building a
//! neighbour view: it folds each gathered row with the declared join, in
//! whatever order the row lies, duplicates included. That is sound only
//! under the *fold law*, which this pass checks exhaustively on the
//! verify instance's state space:
//!
//! 1. the join is idempotent, commutative and associative — so the order
//!    and the repetitions of a row cannot matter; and
//! 2. `transition(a, μ, 0) == finish(a, join over supp μ)` for every own
//!    state `a` and every non-empty multiset `μ` with multiplicities
//!    `0..=2` per state — multiplicity 2 is what exposes a transition that
//!    counts neighbours instead of only seeing which states are present.
//!
//! Each violated law is reported once, with its minimal witness (the
//! smallest multiset, then the smallest own state) and the number of
//! violating cases.

use fssga_core::diag::{Diagnostic, Report};
use fssga_engine::{NeighborView, Protocol, StateSpace};
use fssga_protocols::contract::SemanticContract;

const ANALYSIS: &str = "verify-fold";

/// Largest number of `(own state, multiset)` agreement cases enumerated.
const CASE_BUDGET: usize = 1_000_000;

/// The first violation of one law, plus how many cases violate it.
struct Law {
    message: &'static str,
    first: Option<String>,
    cases: usize,
}

impl Law {
    fn new(message: &'static str) -> Self {
        Self {
            message,
            first: None,
            cases: 0,
        }
    }

    fn violated(&mut self, witness: impl FnOnce() -> String) {
        if self.first.is_none() {
            self.first = Some(witness());
        }
        self.cases += 1;
    }

    fn report(self, contract: &SemanticContract, report: &mut Report) -> bool {
        let Some(witness) = self.first else {
            return true;
        };
        report.push(
            Diagnostic::error(
                ANALYSIS,
                contract.name,
                format!("{} ({} case(s))", self.message, self.cases),
            )
            .with_witness(witness),
        );
        false
    }
}

/// Every count vector over `q` states with multiplicities `0..=2`, except
/// the empty one, ordered by total size (then by base-3 value, state 0
/// the least significant digit).
fn multisets(q: usize) -> Vec<Vec<u32>> {
    let mut all: Vec<Vec<u32>> = (1..3usize.pow(q as u32))
        .map(|mut code| {
            (0..q)
                .map(|_| {
                    let digit = (code % 3) as u32;
                    code /= 3;
                    digit
                })
                .collect()
        })
        .collect();
    all.sort_by_key(|counts| counts.iter().sum::<u32>());
    all
}

/// `"A, B, B"` for state indices `[0, 1, 1]`.
fn names<S: std::fmt::Debug>(ids: &[u32], st: impl Fn(usize) -> S) -> String {
    ids.iter()
        .map(|&i| format!("{:?}", st(i as usize)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Checks `P`'s declared fold, if any, against the fold law. Protocols
/// without a fold are skipped silently.
pub fn check<P: Protocol>(contract: &SemanticContract, protocol: &P, report: &mut Report) {
    let Some(fold) = P::FOLD else {
        return;
    };
    let q = P::State::COUNT;
    let st = |i: usize| P::State::from_index(i);
    if P::RANDOMNESS > 1 {
        report.push(Diagnostic::error(
            ANALYSIS,
            contract.name,
            format!(
                "fold declared on a probabilistic protocol (RANDOMNESS = {})",
                P::RANDOMNESS
            ),
        ));
    }
    let cases = 3f64.powi(q as i32) * q as f64;
    if cases > CASE_BUDGET as f64 {
        report.push(Diagnostic::note(
            ANALYSIS,
            contract.name,
            format!("fold check skipped: {q} states exceed the case budget"),
        ));
        return;
    }

    let join = |a: usize, b: usize| (fold.join)(st(a), st(b)).index();
    let mut idempotent = Law::new("fold join is not idempotent");
    let mut commutative = Law::new("fold join is not commutative");
    let mut associative = Law::new("fold join is not associative");
    for a in 0..q {
        let sa = st(a);
        let aa = join(a, a);
        if aa != a {
            idempotent.violated(|| format!("join({sa:?}, {sa:?}) = {:?}", st(aa)));
        }
        for b in 0..q {
            let sb = st(b);
            let (ab, ba) = (join(a, b), join(b, a));
            if ab != ba {
                commutative.violated(|| {
                    let (ab, ba) = (st(ab), st(ba));
                    format!("join({sa:?}, {sb:?}) = {ab:?} but join({sb:?}, {sa:?}) = {ba:?}")
                });
            }
            for c in 0..q {
                let (left, right) = (join(ab, c), join(a, join(b, c)));
                if left != right {
                    associative.violated(|| {
                        let (sc, left, right) = (st(c), st(left), st(right));
                        format!(
                            "join(join({sa:?}, {sb:?}), {sc:?}) = {left:?} but \
                             join({sa:?}, join({sb:?}, {sc:?})) = {right:?}"
                        )
                    });
                }
            }
        }
    }

    let mut agreement = Law::new("transition is not the fold over the neighbourhood's support");
    let all = multisets(q);
    for counts in &all {
        let support: Vec<u32> = (0..q as u32).filter(|&i| counts[i as usize] > 0).collect();
        let view = NeighborView::<P::State>::over_sparse(counts, &support, None);
        for sa in (0..q).map(st) {
            let direct = protocol.transition(sa, &view, 0);
            let folded = fold.apply(sa, support.iter().map(|&i| st(i as usize)));
            if direct != folded {
                agreement.violated(|| {
                    let members: Vec<u32> = support
                        .iter()
                        .flat_map(|&i| std::iter::repeat_n(i, counts[i as usize] as usize))
                        .collect();
                    let (members, support) = (names(&members, st), names(&support, st));
                    format!(
                        "transition({sa:?}, {{{members}}}) = {direct:?} but \
                         finish({sa:?}, join over {{{support}}}) = {folded:?}"
                    )
                });
            }
        }
    }

    let clean = [idempotent, commutative, associative, agreement]
        .into_iter()
        .fold(true, |clean, law| law.report(contract, report) & clean);
    if clean {
        report.push(Diagnostic::note(
            ANALYSIS,
            contract.name,
            format!(
                "fold law holds: join laws on {q} states, agreement on {} multisets x {q} own states",
                all.len()
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multisets_are_size_ordered_and_complete() {
        let all = multisets(2);
        assert_eq!(all.len(), 8);
        assert_eq!(all[0], vec![1, 0]);
        assert_eq!(all[1], vec![0, 1]);
        assert_eq!(all.last().unwrap(), &vec![2, 2]);
        assert!(all
            .windows(2)
            .all(|w| w[0].iter().sum::<u32>() <= w[1].iter().sum::<u32>()));
    }
}
