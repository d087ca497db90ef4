//! Formatter/parser round-trip property: any buildable table formatted
//! with [`ProtocolTable::to_map_file`] and re-parsed must compare equal.
//!
//! The verification fuzzer stores protocol mutants and corpus metadata in
//! the map-file format, so any drift between the formatter and the parser
//! would silently corrupt its fixtures; this test pins the two together
//! over randomly generated tables, not just the hand-written builtins.
//!
//! The same tables also pin the per-state facts a table precomputes when
//! it is built (`summarize_state`, `is_dirty_state`) to their derivation
//! from the table's own remote-read cells.

use memories_protocol::{
    standard, AccessEvent, Action, ActionSet, ProtocolTable, RemoteSummary, StateId, TableBuilder,
    Transition,
};
use proptest::prelude::*;

/// State-name pool: single tokens the map-file grammar accepts.
const NAMES: [&str; 8] = ["I", "S", "E", "M", "O", "F", "V", "X"];

/// Builds a complete table from `count` states and one `(next, actions)`
/// pair per cell of the full 9x8x3 input space (cells beyond `count`
/// states are ignored; `next` is folded into range).
fn build_table(count: usize, cells: &[(u8, u8)]) -> ProtocolTable {
    let mut b = TableBuilder::new("fuzzed", &NAMES[..count]).unwrap();
    for event in AccessEvent::ALL {
        for s in 0..count {
            for remote in RemoteSummary::ALL {
                let (next, bits) = cells
                    [(event.index() * NAMES.len() + s) * RemoteSummary::ALL.len() + remote.index()];
                let mut actions = ActionSet::EMPTY;
                for (i, action) in Action::ALL.into_iter().enumerate() {
                    if bits & (1 << i) != 0 {
                        actions.insert(action);
                    }
                }
                b.on(
                    event,
                    StateId::new(s as u8),
                    remote,
                    Transition::new(StateId::new(next % count as u8), actions),
                );
            }
        }
    }
    b.build().expect("all cells defined, next states in range")
}

/// The summary of `state` derived from the cells, as every call computed
/// it before the table precomputed it: dirty if a snooped remote read
/// intervenes with modified data or writes back.
fn derived_summary(table: &ProtocolTable, state: StateId) -> RemoteSummary {
    if state.is_invalid() {
        return RemoteSummary::None;
    }
    let t = table.lookup(AccessEvent::RemoteRead, state, RemoteSummary::None);
    if t.actions.contains(Action::InterveneModified) || t.actions.contains(Action::Writeback) {
        RemoteSummary::Modified
    } else {
        RemoteSummary::Shared
    }
}

fn assert_state_facts_match_cells(table: &ProtocolTable) {
    for state in StateId::all(table.state_count()) {
        let want = derived_summary(table, state);
        assert_eq!(
            table.summarize_state(state),
            want,
            "{} state {state}",
            table.name()
        );
        assert_eq!(
            table.is_dirty_state(state),
            want == RemoteSummary::Modified,
            "{} state {state}",
            table.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// format -> re-parse -> equality, for arbitrary complete tables.
    #[test]
    fn random_tables_roundtrip_through_map_files(
        count in 2usize..9,
        cells in prop::collection::vec((0u8..8, 0u8..16), 216..217),
    ) {
        let table = build_table(count, &cells);
        let text = table.to_map_file();
        let back = ProtocolTable::parse_map_file(&text).unwrap();
        prop_assert_eq!(table, back);
    }

    /// Precomputed summaries and dirty flags equal the cell derivation.
    #[test]
    fn random_tables_precompute_state_facts_from_their_cells(
        count in 2usize..9,
        cells in prop::collection::vec((0u8..8, 0u8..16), 216..217),
    ) {
        assert_state_facts_match_cells(&build_table(count, &cells));
    }
}

#[test]
fn builtin_tables_precompute_state_facts_from_their_cells() {
    for table in standard::try_all().expect("builtins parse") {
        assert_state_facts_match_cells(&table);
    }
}

#[test]
fn builtin_tables_roundtrip_through_map_files() {
    for table in standard::try_all().expect("builtins parse") {
        let text = table.to_map_file();
        let back = ProtocolTable::parse_map_file(&text).unwrap();
        assert_eq!(
            table,
            back,
            "{} drifted through the formatter",
            table.name()
        );
    }
}
