//! Differential proof for the packed tag store: [`TagStore`] against a
//! naive reference model, over every replacement policy, 1–8 ways and
//! 128 B–16 KB lines.
//!
//! The reference keeps one `Vec` of ways per set, each way holding the
//! whole line address (not a tag), its state and a plain timestamp for
//! LRU/FIFO, plus a per-set PLRU mask and its own copy of the random
//! policy's xorshift stream. It shares no code with the store, so
//! agreement on every returned victim, state and `iter()` listing proves
//! the store's one-word `tag << 3 | state` entries, its single probe and
//! its slot API exact. The address pool includes tags at the 57-bit
//! limit (addresses near `u64::MAX`), so the packing and the
//! `line_from_parts` round-trip are exercised at their edge.

use memories::{CacheParams, EvictedLine, ReplacementPolicy, TagStore};
use memories_bus::{Address, LineAddr};
use memories_protocol::StateId;
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
struct RefWay {
    line: u64,
    state: u8,
    stamp: u64,
}

/// The naive model: linear scans over explicit per-set way lists.
struct RefStore {
    policy: ReplacementPolicy,
    ways: usize,
    line_shift: u32,
    sets: Vec<Vec<RefWay>>,
    plru: Vec<u8>,
    rng: u64,
    clock: u64,
}

impl RefStore {
    fn new(policy: ReplacementPolicy, ways: usize, sets: usize, line_shift: u32) -> Self {
        let free = RefWay {
            line: 0,
            state: 0,
            stamp: 0,
        };
        RefStore {
            policy,
            ways,
            line_shift,
            sets: vec![vec![free; ways]; sets],
            plru: vec![0; sets],
            rng: 0x9E37_79B9_7F4A_7C15,
            clock: 0,
        }
    }

    fn line(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.sets.len() as u64) as usize
    }

    fn way_of(&self, line: u64) -> Option<usize> {
        self.sets[self.set_of(line)]
            .iter()
            .position(|w| w.state != 0 && w.line == line)
    }

    fn state(&self, line: u64) -> u8 {
        self.way_of(line)
            .map_or(0, |w| self.sets[self.set_of(line)][w].state)
    }

    fn mark_plru(&mut self, set: usize, way: usize) {
        let full = if self.ways == 8 {
            0xff
        } else {
            (1u8 << self.ways) - 1
        };
        let mut bits = self.plru[set] | (1 << way);
        if bits == full {
            bits = 1 << way;
        }
        self.plru[set] = bits;
    }

    fn stamp(&mut self, set: usize, way: usize) {
        self.clock += 1;
        self.sets[set][way].stamp = self.clock;
    }

    /// LRU stamps every use, FIFO only fills, PLRU marks every use, and
    /// random keeps no history.
    fn record_use(&mut self, set: usize, way: usize, fill: bool) {
        match self.policy {
            ReplacementPolicy::Lru => self.stamp(set, way),
            ReplacementPolicy::Fifo if fill => self.stamp(set, way),
            ReplacementPolicy::PlruBits => self.mark_plru(set, way),
            ReplacementPolicy::Fifo | ReplacementPolicy::Random => {}
        }
    }

    fn touch(&mut self, line: u64) -> bool {
        let Some(way) = self.way_of(line) else {
            return false;
        };
        self.record_use(self.set_of(line), way, false);
        true
    }

    fn set_state(&mut self, line: u64, state: u8) -> Option<u8> {
        let way = self.way_of(line)?;
        let set = self.set_of(line);
        let old = self.sets[set][way].state;
        self.sets[set][way].state = state;
        Some(old)
    }

    fn next_random(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn allocate(&mut self, line: u64, state: u8) -> Option<(u64, u8)> {
        let set = self.set_of(line);
        if let Some(way) = self.way_of(line) {
            self.sets[set][way].state = state;
            self.record_use(set, way, false);
            return None;
        }
        let ways = &self.sets[set];
        let (way, victim) = match ways.iter().position(|w| w.state == 0) {
            Some(way) => (way, None),
            None => {
                let way = match self.policy {
                    ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                        let oldest = ways.iter().map(|w| w.stamp).min().unwrap();
                        ways.iter().position(|w| w.stamp == oldest).unwrap()
                    }
                    ReplacementPolicy::Random => (self.next_random() % self.ways as u64) as usize,
                    ReplacementPolicy::PlruBits => (0..self.ways)
                        .find(|w| self.plru[set] & (1 << w) == 0)
                        .unwrap_or(0),
                };
                let old = self.sets[set][way];
                (way, Some((old.line, old.state)))
            }
        };
        self.sets[set][way].line = line;
        self.sets[set][way].state = state;
        self.record_use(set, way, true);
        victim
    }

    fn listing(&self) -> Vec<(u64, u8)> {
        let mut all: Vec<(u64, u8)> = self
            .sets
            .iter()
            .flatten()
            .filter(|w| w.state != 0)
            .map(|w| (w.line, w.state))
            .collect();
        all.sort_unstable();
        all
    }
}

fn listing(store: &TagStore) -> Vec<(u64, u8)> {
    let mut all: Vec<(u64, u8)> = store
        .iter()
        .map(|(line, state)| (line.value(), state.value()))
        .collect();
    all.sort_unstable();
    all
}

fn victim(v: Option<EvictedLine>) -> Option<(u64, u8)> {
    v.map(|v| (v.line.value(), v.state.value()))
}

/// Tag choices: small tags for conflicts, and the largest tags the
/// geometry can produce, whose addresses reach `u64::MAX`.
fn tag(choice: u64, max_tag: u64) -> u64 {
    match choice {
        0..=4 => choice,
        n => max_tag - (n - 5),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn packed_tag_store_matches_naive_reference(
        policy in 0usize..4,
        ways in 1u32..9,
        line_shift in 7u32..15,
        set_bits in 0u32..4,
        ops in prop::collection::vec((0u8..7, 0u64..8, 0usize..4, 0u8..8, 0u64..u64::MAX), 1..400),
    ) {
        let policy = ReplacementPolicy::ALL[policy];
        let sets = 1usize << set_bits;
        let line_size = 1u64 << line_shift;
        let params = CacheParams::builder()
            .capacity(line_size * u64::from(ways) * sets as u64)
            .ways(ways)
            .line_size(line_size)
            .replacement(policy)
            .allow_scaled_down()
            .build()
            .unwrap();
        let mut store = TagStore::new(&params);
        let mut model = RefStore::new(policy, ways as usize, sets, line_shift);
        let max_tag = u64::MAX >> (line_shift + set_bits);
        let geom = *store.geometry();

        for (kind, tag_choice, set_choice, state, offset) in ops {
            // Set 0, 1, 2 or the last set; any byte offset within the line.
            let set = [0, 1, 2, sets - 1][set_choice] % sets;
            let line_value = (tag(tag_choice, max_tag) << set_bits) | set as u64;
            let addr = (line_value << line_shift) | (offset % line_size);
            let line: LineAddr = geom.line_addr(Address::new(addr));
            prop_assert_eq!(line.value(), model.line(addr));
            let live = StateId::new(state.max(1));

            match kind {
                0 => {
                    let got = victim(store.allocate(line, live));
                    prop_assert_eq!(got, model.allocate(line.value(), live.value()));
                }
                1 => prop_assert_eq!(store.touch(line), model.touch(line.value())),
                2 => {
                    let got = store.set_state(line, StateId::new(state)).map(|s| s.value());
                    prop_assert_eq!(got, model.set_state(line.value(), state));
                }
                3 => {
                    let got = store.invalidate(line).value();
                    let want = model.set_state(line.value(), 0).unwrap_or(0);
                    prop_assert_eq!(got, want);
                }
                4 => {
                    prop_assert_eq!(store.state(line).value(), model.state(line.value()));
                    prop_assert_eq!(store.contains(line), model.state(line.value()) != 0);
                }
                // The node controller's shape: one probe, then slot calls.
                5 => match store.find(line) {
                    Some(slot) => {
                        prop_assert_eq!(store.state_at(slot).value(), model.state(line.value()));
                        prop_assert_eq!(store.set_state_at(slot, live).value(),
                            model.set_state(line.value(), live.value()).unwrap());
                        store.touch_at(slot);
                        model.touch(line.value());
                    }
                    None => {
                        prop_assert_eq!(model.state(line.value()), 0);
                        let got = victim(store.allocate_absent(line, live));
                        prop_assert_eq!(got, model.allocate(line.value(), live.value()));
                    }
                },
                _ => match store.find(line) {
                    Some(slot) => {
                        let want = model.set_state(line.value(), 0).unwrap();
                        prop_assert_eq!(store.invalidate_at(slot).value(), want);
                    }
                    None => prop_assert_eq!(model.state(line.value()), 0),
                },
            }
            let want = model.listing();
            prop_assert_eq!(store.resident_lines(), want.len() as u64);
            prop_assert_eq!(listing(&store), want);
        }
    }
}

#[test]
fn largest_tag_round_trips_through_the_packed_entry() {
    let params = CacheParams::builder()
        .capacity(128)
        .ways(1)
        .line_size(128)
        .allow_scaled_down()
        .build()
        .unwrap();
    let mut store = TagStore::new(&params);
    let top = store.geometry().line_addr(Address::new(u64::MAX));
    assert_eq!(top.value(), u64::MAX >> 7);
    assert!(store.allocate(top, StateId::new(7)).is_none());
    assert_eq!(store.state(top), StateId::new(7));
    assert_eq!(store.iter().collect::<Vec<_>>(), [(top, StateId::new(7))]);
    let next = store.geometry().line_addr(Address::new(0));
    let evicted = store.allocate(next, StateId::new(1)).unwrap();
    assert_eq!((evicted.line, evicted.state), (top, StateId::new(7)));
}
