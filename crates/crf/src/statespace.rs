//! CRF state spaces for first- and second-order chains.
//!
//! The paper reports results with CRFs of order 1 and order 2 ("tᵢ
//! depends on x and the previous d labels"). A second-order chain over
//! the BIO tag set is realized as a first-order chain whose states are
//! *tag pairs* `(tᵢ₋₁, tᵢ)`, with transitions constrained so consecutive
//! pairs agree on the shared tag. Everything downstream (inference,
//! training) is written against this generic state space.

#![warn(clippy::cast_possible_truncation)]

use graphner_text::{BioTag, NUM_TAGS};

/// Markov order of the chain CRF.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Order {
    /// `tᵢ` depends on `tᵢ₋₁`.
    One,
    /// `tᵢ` depends on `tᵢ₋₁` and `tᵢ₋₂`.
    Two,
}

/// A concrete state space: the mapping between chain states and BIO tags.
#[derive(Clone, Debug)]
pub struct StateSpace {
    order: Order,
    /// `allowed_prev[s]` lists the states that may precede `s`.
    allowed_prev: Vec<Vec<u32>>,
    /// `allowed_next[s]` lists the states that may follow `s`.
    allowed_next: Vec<Vec<u32>>,
}

impl StateSpace {
    /// Build the state space for a given order.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "state ids are < NUM_TAGS² = 9, so they fit u32"
    )]
    pub fn new(order: Order) -> StateSpace {
        let n = match order {
            Order::One => NUM_TAGS,
            Order::Two => NUM_TAGS * NUM_TAGS,
        };
        let mut allowed_prev = vec![Vec::new(); n];
        let mut allowed_next = vec![Vec::new(); n];
        for prev in 0..n {
            for cur in 0..n {
                let ok = match order {
                    Order::One => true,
                    // pair (a,b) -> (b',c) requires b == b'
                    Order::Two => prev % NUM_TAGS == cur / NUM_TAGS,
                };
                if ok {
                    allowed_prev[cur].push(prev as u32);
                    allowed_next[prev].push(cur as u32);
                }
            }
        }
        StateSpace { order, allowed_prev, allowed_next }
    }

    /// The chain order.
    pub fn order(&self) -> Order {
        self.order
    }

    /// Number of chain states (3 for order 1, 9 for order 2).
    #[inline]
    pub fn num_states(&self) -> usize {
        self.allowed_prev.len()
    }

    /// The BIO tag a chain state assigns to the current position.
    #[inline]
    pub fn tag_of(&self, state: usize) -> usize {
        match self.order {
            Order::One => state,
            Order::Two => state % NUM_TAGS,
        }
    }

    /// States that may precede `state`.
    #[inline]
    pub fn prev_states(&self, state: usize) -> &[u32] {
        &self.allowed_prev[state]
    }

    /// States that may follow `state`.
    #[inline]
    pub fn next_states(&self, state: usize) -> &[u32] {
        &self.allowed_next[state]
    }

    /// Whether `state` is valid at the first position of a sentence.
    /// Order-2 states encode the previous tag, which is defined to be `O`
    /// at sentence start.
    #[inline]
    pub fn initial_allowed(&self, state: usize) -> bool {
        match self.order {
            Order::One => true,
            Order::Two => state / NUM_TAGS == BioTag::O.index(),
        }
    }

    /// The chain state of the gold path at position `i`.
    pub fn gold_state(&self, tags: &[BioTag], i: usize) -> usize {
        match self.order {
            Order::One => tags[i].index(),
            Order::Two => {
                let prev = if i == 0 { BioTag::O } else { tags[i - 1] };
                prev.index() * NUM_TAGS + tags[i].index()
            }
        }
    }

    /// Decode a chain-state path back into BIO tags.
    pub fn states_to_tags(&self, states: &[usize]) -> Vec<BioTag> {
        // alloc: one exact-size result Vec per decoded sentence
        states.iter().map(|&s| BioTag::from_index(self.tag_of(s))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use BioTag::*;

    #[test]
    fn order1_all_transitions_allowed() {
        let sp = StateSpace::new(Order::One);
        assert_eq!(sp.num_states(), 3);
        for s in 0..3 {
            assert_eq!(sp.prev_states(s).len(), 3);
            assert_eq!(sp.next_states(s).len(), 3);
            assert!(sp.initial_allowed(s));
            assert_eq!(sp.tag_of(s), s);
        }
    }

    #[test]
    fn order2_pair_consistency() {
        let sp = StateSpace::new(Order::Two);
        assert_eq!(sp.num_states(), 9);
        for cur in 0..9 {
            for &prev in sp.prev_states(cur) {
                assert_eq!(prev as usize % NUM_TAGS, cur / NUM_TAGS);
            }
            assert_eq!(sp.prev_states(cur).len(), 3);
            assert_eq!(sp.next_states(cur).len(), 3);
        }
    }

    #[test]
    fn order2_initial_states_have_o_context() {
        let sp = StateSpace::new(Order::Two);
        let initial: Vec<usize> = (0..9).filter(|&s| sp.initial_allowed(s)).collect();
        // (O, B), (O, I), (O, O)
        let o = O.index();
        assert_eq!(initial, vec![o * 3, o * 3 + 1, o * 3 + 2]);
    }

    #[test]
    #[expect(clippy::cast_possible_truncation, reason = "state ids are < 9")]
    fn gold_states_round_trip() {
        let tags = vec![O, B, I, O];
        for order in [Order::One, Order::Two] {
            let sp = StateSpace::new(order);
            let states: Vec<usize> = (0..tags.len()).map(|i| sp.gold_state(&tags, i)).collect();
            assert_eq!(sp.states_to_tags(&states), tags);
            // consecutive gold states must be allowed transitions
            for w in states.windows(2) {
                assert!(sp.prev_states(w[1]).contains(&(w[0] as u32)));
            }
            assert!(sp.initial_allowed(states[0]));
        }
    }

    #[test]
    fn order2_gold_state_encodes_pair() {
        let sp = StateSpace::new(Order::Two);
        let tags = vec![B, I];
        assert_eq!(sp.gold_state(&tags, 0), O.index() * 3 + B.index());
        assert_eq!(sp.gold_state(&tags, 1), B.index() * 3 + I.index());
    }
}

#[cfg(test)]
mod order_comparison_tests {
    use crate::model::{ChainCrf, SentenceFeatures};
    use crate::statespace::Order;
    use crate::train::TrainConfig;
    use graphner_text::BioTag::{self, *};

    /// A pattern only a second-order model can express: the tag of the
    /// third token depends on the tag *two* positions back, while every
    /// token shares one uninformative observation feature.
    fn second_order_data() -> Vec<SentenceFeatures> {
        let mk = |first: u32, tags: Vec<BioTag>| SentenceFeatures {
            // position 0 carries a distinguishing feature; positions 1-2
            // are identical across sentences
            obs: vec![vec![first], vec![9], vec![9]],
            gold: Some(tags),
        };
        let mut data = Vec::new();
        for _ in 0..4 {
            // "B O ?" -> ? = B   vs "O O ?" -> ? = O
            data.push(mk(0, vec![B, O, B]));
            data.push(mk(1, vec![O, O, O]));
        }
        data
    }

    #[test]
    fn order2_expresses_skip_dependency_order1_cannot() {
        let data = second_order_data();
        let fit = |order: Order| -> usize {
            let mut crf = ChainCrf::new(order, 10);
            crf.train(&data, &TrainConfig { l2: 0.01, max_iterations: 200, ..Default::default() });
            data.iter().filter(|s| &crf.viterbi(s) == s.gold.as_ref().unwrap()).count()
        };
        let order2_correct = fit(Order::Two);
        assert_eq!(order2_correct, data.len(), "order 2 must fit the skip pattern");
        // order 1 cannot separate the two third-token outcomes: the
        // second token is O in both patterns and observations at
        // position 2 are identical
        let order1_correct = fit(Order::One);
        assert!(order1_correct < data.len(), "order 1 unexpectedly fit a second-order pattern");
    }
}
