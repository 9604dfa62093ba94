//! Blow-up accounting for the Theorem 3.7 conversions.
//!
//! The paper notes the conversions between sequential, parallel and
//! mod-thresh programs "can entail an exponential increase in program
//! complexity". This module makes that cost concrete per library program:
//! it drives each one around the conversion cycle
//! seq → mt (Lemma 3.9) → par (Lemma 3.8) → seq (Lemma 3.5) and records
//! every size along the way, plus the Moore-minimal size as the floor the
//! blow-up should be judged against. The output doubles as a regression
//! surface: the table is machine-readable (TSV and JSON) so the bench
//! harness can diff it across commits.

use fssga_core::convert::{mt_to_par, mt_to_par_cost, par_to_seq, seq_to_mt, seq_to_mt_cost};
use fssga_core::{library, SeqProgram};
use fssga_engine::json::{self, Json};

/// One program's trip around the conversion cycle.
#[derive(Clone, Debug)]
pub struct BlowupRow {
    /// Library name of the program.
    pub name: String,
    /// `|W|` of the original sequential program.
    pub seq_states: usize,
    /// `|W|` of the Moore-minimal equivalent (the floor).
    pub min_states: usize,
    /// Predicted Lemma 3.9 cost (count-class combinations).
    pub seq_to_mt_cost: u128,
    /// Clauses of the converted mod-thresh program (counting the default),
    /// or `None` if the conversion exceeded the budget.
    pub mt_clauses: Option<usize>,
    /// Total atoms across the converted program's guards.
    pub mt_atoms: Option<usize>,
    /// Predicted Lemma 3.8 cost for the converted program.
    pub mt_to_par_cost: Option<u128>,
    /// `|W|` of the parallel program from Lemma 3.8.
    pub par_states: Option<usize>,
    /// `|W|` after closing the cycle with Lemma 3.5.
    pub roundtrip_seq_states: Option<usize>,
}

/// Drives one sequential program around the conversion cycle under the
/// given table budget.
pub fn account(name: &str, seq: &SeqProgram, limit: u128) -> BlowupRow {
    let mut row = BlowupRow {
        name: name.to_string(),
        seq_states: seq.num_working(),
        min_states: seq.minimized().num_working(),
        seq_to_mt_cost: seq_to_mt_cost(seq),
        mt_clauses: None,
        mt_atoms: None,
        mt_to_par_cost: None,
        par_states: None,
        roundtrip_seq_states: None,
    };
    let Ok(mt) = seq_to_mt(seq, limit) else {
        return row;
    };
    row.mt_clauses = Some(mt.num_clauses());
    row.mt_atoms = Some(mt.atom_count());
    row.mt_to_par_cost = Some(mt_to_par_cost(&mt));
    let Ok(par) = mt_to_par(&mt, limit) else {
        return row;
    };
    row.par_states = Some(par.num_working());
    row.roundtrip_seq_states = Some(par_to_seq(&par).num_working());
    row
}

/// The library programs tracked by the accounting table.
pub fn library_blowup(limit: u128) -> Vec<BlowupRow> {
    vec![
        account("or_seq", &library::or_seq(), limit),
        account("and_seq", &library::and_seq(), limit),
        account("parity_seq", &library::parity_seq(), limit),
        account(
            "count_ones_mod_seq(3)",
            &library::count_ones_mod_seq(3),
            limit,
        ),
        account(
            "count_ones_mod_seq(5)",
            &library::count_ones_mod_seq(5),
            limit,
        ),
        account("max_state_seq(3)", &library::max_state_seq(3), limit),
        account("max_state_seq(4)", &library::max_state_seq(4), limit),
        account("min_state_seq(3)", &library::min_state_seq(3), limit),
        account(
            "count_at_least_seq(2,1,3)",
            &library::count_at_least_seq(2, 1, 3),
            limit,
        ),
        account("all_equal_seq(3)", &library::all_equal_seq(3), limit),
    ]
}

fn opt<T: std::fmt::Display>(v: &Option<T>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "-".to_string(),
    }
}

/// Renders rows as a tab-separated table with a header line.
pub fn to_tsv(rows: &[BlowupRow]) -> String {
    let mut out = String::from(
        "name\tseq_states\tmin_states\tseq_to_mt_cost\tmt_clauses\tmt_atoms\t\
         mt_to_par_cost\tpar_states\troundtrip_seq_states\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            r.name,
            r.seq_states,
            r.min_states,
            r.seq_to_mt_cost,
            opt(&r.mt_clauses),
            opt(&r.mt_atoms),
            opt(&r.mt_to_par_cost),
            opt(&r.par_states),
            opt(&r.roundtrip_seq_states),
        ));
    }
    out
}

/// Renders rows as a compact JSON array of objects, one per row, with
/// `null` for every stage that exceeded the budget.
pub fn to_json(rows: &[BlowupRow]) -> String {
    let count = |x: usize| json::n(x as f64);
    let opt = |x: Option<usize>| x.map_or(Json::Null, count);
    let cost = |x: u128| json::n(x as f64);
    let rows = rows.iter().map(|r| {
        json::obj(vec![
            ("name", json::s(&r.name)),
            ("seq_states", count(r.seq_states)),
            ("min_states", count(r.min_states)),
            ("seq_to_mt_cost", cost(r.seq_to_mt_cost)),
            ("mt_clauses", opt(r.mt_clauses)),
            ("mt_atoms", opt(r.mt_atoms)),
            ("mt_to_par_cost", r.mt_to_par_cost.map_or(Json::Null, cost)),
            ("par_states", opt(r.par_states)),
            ("roundtrip_seq_states", opt(r.roundtrip_seq_states)),
        ])
    });
    Json::Arr(rows.collect()).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fssga_core::convert::DEFAULT_LIMIT;

    #[test]
    fn cycle_completes_for_small_programs() {
        let row = account("or", &library::or_seq(), DEFAULT_LIMIT);
        assert_eq!(row.seq_states, 2);
        assert_eq!(row.min_states, 2);
        assert!(row.mt_clauses.is_some());
        let par = row.par_states.unwrap();
        let back = row.roundtrip_seq_states.unwrap();
        // Lemma 3.5 keeps the working set and adds one fresh NIL start.
        assert_eq!(back, par + 1);
        // The cycle can only inflate relative to the minimal floor.
        assert!(back >= row.min_states);
    }

    #[test]
    fn budget_exhaustion_yields_partial_row() {
        let row = account("big", &library::count_ones_mod_seq(64), 4);
        assert_eq!(row.mt_clauses, None);
        assert_eq!(row.par_states, None);
        assert!(row.seq_to_mt_cost > 4);
    }

    #[test]
    fn library_table_is_complete() {
        let rows = library_blowup(DEFAULT_LIMIT);
        assert_eq!(rows.len(), 10);
        for row in &rows {
            assert!(row.mt_clauses.is_some(), "{} did not convert", row.name);
            assert!(
                row.min_states <= row.seq_states,
                "{}: minimal exceeds original",
                row.name
            );
        }
    }

    #[test]
    fn tsv_shape() {
        let rows = library_blowup(DEFAULT_LIMIT);
        let tsv = to_tsv(&rows);
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines.len(), rows.len() + 1);
        assert!(lines[0].starts_with("name\t"));
        for line in &lines[1..] {
            assert_eq!(line.split('\t').count(), 9, "{line}");
        }
    }

    #[test]
    fn json_table_parses_with_null_for_failed_stages() {
        let mut rows = crate::lint::blowup_table();
        rows.push(account("big", &library::count_ones_mod_seq(64), 4));
        assert_eq!(rows.last().unwrap().par_states, None, "a stage failed");
        let parsed = Json::parse(&to_json(&rows)).expect("blow-up JSON parses");
        let objs = parsed.as_arr().expect("a JSON array");
        assert_eq!(objs.len(), rows.len(), "one object per row");
        for (o, r) in objs.iter().zip(&rows) {
            assert_eq!(o.get("name").and_then(Json::as_str), Some(r.name.as_str()));
            let sizes = [
                ("seq_states", Some(r.seq_states as f64)),
                ("min_states", Some(r.min_states as f64)),
                ("seq_to_mt_cost", Some(r.seq_to_mt_cost as f64)),
                ("mt_clauses", r.mt_clauses.map(|x| x as f64)),
                ("mt_atoms", r.mt_atoms.map(|x| x as f64)),
                ("mt_to_par_cost", r.mt_to_par_cost.map(|x| x as f64)),
                ("par_states", r.par_states.map(|x| x as f64)),
                (
                    "roundtrip_seq_states",
                    r.roundtrip_seq_states.map(|x| x as f64),
                ),
            ];
            for (k, want) in sizes {
                let want = want.map_or(Json::Null, Json::Num);
                assert_eq!(o.get(k), Some(&want), "{}: {k}", r.name);
            }
        }
    }
}
