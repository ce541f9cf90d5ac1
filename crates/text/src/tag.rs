//! The BIO tag scheme for single-entity-type named entity recognition.
//!
//! The paper detects one entity type (gene mentions), so the tag set is
//! `{B, I, O}`: *beginning* of a mention, *inside* a mention, and
//! *outside* any mention.

/// Number of distinct tags in the BIO scheme.
pub const NUM_TAGS: usize = 3;

/// A BIO tag for gene-mention detection.
///
/// The discriminants are stable (`B = 0`, `I = 1`, `O = 2`) and are used
/// directly as indices into label-distribution vectors throughout the
/// workspace, e.g. the `(B, I, O)` triples in Figure 1 of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum BioTag {
    /// First token of a gene mention.
    B = 0,
    /// Subsequent token of a gene mention.
    I = 1,
    /// Token outside any gene mention.
    O = 2,
}

impl BioTag {
    /// All tags in index order.
    pub const ALL: [BioTag; NUM_TAGS] = [BioTag::B, BioTag::I, BioTag::O];

    /// The tag's index into a `[f64; NUM_TAGS]` label distribution.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`BioTag::index`].
    ///
    /// # Panics
    /// Panics if `idx >= NUM_TAGS`.
    #[inline]
    #[expect(
        clippy::panic,
        reason = "from_index's panic is its documented \"# Panics\" contract; untrusted indices go through try_from_index"
    )]
    pub fn from_index(idx: usize) -> BioTag {
        match BioTag::try_from_index(idx) {
            Some(tag) => tag,
            None => panic!("invalid BIO tag index {idx}"),
        }
    }

    /// Fallible inverse of [`BioTag::index`], for callers handling
    /// untrusted indices (e.g. model files read from disk).
    #[inline]
    pub fn try_from_index(idx: usize) -> Option<BioTag> {
        match idx {
            0 => Some(BioTag::B),
            1 => Some(BioTag::I),
            2 => Some(BioTag::O),
            _ => None,
        }
    }

    /// Single-letter string form used in annotated corpora (`B`/`I`/`O`).
    pub fn as_str(self) -> &'static str {
        match self {
            BioTag::B => "B",
            BioTag::I => "I",
            BioTag::O => "O",
        }
    }

    /// Parse a single-letter tag; returns `None` for anything else.
    pub fn parse(s: &str) -> Option<BioTag> {
        match s {
            "B" | "B-Gene" | "B-GENE" => Some(BioTag::B),
            "I" | "I-Gene" | "I-GENE" => Some(BioTag::I),
            "O" => Some(BioTag::O),
            _ => None,
        }
    }

    /// Whether this tag marks a token as part of a mention.
    #[inline]
    pub fn is_entity(self) -> bool {
        !matches!(self, BioTag::O)
    }

    /// BIO well-formedness: may `self` follow `prev` at a non-initial
    /// position? The only ill-formed transition is `O -> I` (and `I` at
    /// sentence start, encoded by `prev = None`).
    #[inline]
    pub fn may_follow(self, prev: Option<BioTag>) -> bool {
        !matches!((prev, self), (None | Some(BioTag::O), BioTag::I))
    }
}

impl std::fmt::Display for BioTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Repair an arbitrary tag sequence into a well-formed BIO sequence.
///
/// Any `I` that does not follow a `B` or `I` is rewritten to `B`. This is
/// the standard post-processing applied when a decoder is run without
/// structural constraints.
pub fn repair_bio(tags: &mut [BioTag]) {
    let mut prev = None;
    for t in tags.iter_mut() {
        if *t == BioTag::I && !BioTag::I.may_follow(prev) {
            *t = BioTag::B;
        }
        prev = Some(*t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        for t in BioTag::ALL {
            assert_eq!(BioTag::from_index(t.index()), t);
        }
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(BioTag::parse("B"), Some(BioTag::B));
        assert_eq!(BioTag::parse("I-Gene"), Some(BioTag::I));
        assert_eq!(BioTag::parse("O"), Some(BioTag::O));
        assert_eq!(BioTag::parse("X"), None);
        assert_eq!(BioTag::B.to_string(), "B");
    }

    #[test]
    fn well_formedness_rules() {
        assert!(!BioTag::I.may_follow(None));
        assert!(!BioTag::I.may_follow(Some(BioTag::O)));
        assert!(BioTag::I.may_follow(Some(BioTag::B)));
        assert!(BioTag::I.may_follow(Some(BioTag::I)));
        assert!(BioTag::B.may_follow(None));
        assert!(BioTag::O.may_follow(Some(BioTag::I)));
    }

    #[test]
    fn repair_fixes_dangling_inside() {
        use BioTag::*;
        let mut tags = vec![I, I, O, I, B, I];
        repair_bio(&mut tags);
        assert_eq!(tags, vec![B, I, O, B, B, I]);
    }

    #[test]
    fn is_entity() {
        assert!(BioTag::B.is_entity());
        assert!(BioTag::I.is_entity());
        assert!(!BioTag::O.is_entity());
    }
}
