//! The PE layout of Figures 11 and 13.
//!
//! Role values are grouped by (word, role, modifiee): each *group* holds
//! the l role values that differ only in label, and each virtual PE owns
//! the l×l submatrix connecting one column group to one row group. With
//! G = n·q·n = q·n² groups, the program occupies G² = q²·n⁴ virtual PEs —
//! the paper's processor count. PE ids are column-major: PE = cg·G + rg,
//! so one *column* (all rows for a fixed column group) is a contiguous run
//! of G PEs, which is what lets the scans of Figure 12 run on contiguous
//! segments.

use cdg_grammar::expr::Binding;
use cdg_grammar::{Grammar, LabelId, Modifiee, RoleId, RoleValue, Sentence};
use maspar_sim::SegmentMap;

/// Precomputed layout for one (grammar, sentence) pair.
#[derive(Debug, Clone)]
pub struct Layout {
    /// Words in the sentence.
    pub n: usize,
    /// Roles per word.
    pub q: usize,
    /// Labels per PE submatrix side (the grammar's max labels per role).
    pub l: usize,
    /// Modifiee choices per role: nil + (n−1) other words = n.
    pub m: usize,
    /// Role-value groups: n·q·m = q·n².
    pub groups: usize,
    /// Per-word category (the engine requires unambiguous sentences).
    cats: Vec<cdg_grammar::CatId>,
    /// Allowed labels per role (padded view via `label_of`).
    allowed: Vec<Vec<LabelId>>,
}

impl Layout {
    pub fn new(grammar: &Grammar, sentence: &Sentence) -> Self {
        match Layout::try_new(grammar, sentence) {
            Ok(lay) => lay,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible construction — the checked engine maps these conditions to
    /// typed [`cdg_core::EngineError::GrammarError`]s instead of panicking.
    pub fn try_new(grammar: &Grammar, sentence: &Sentence) -> Result<Self, String> {
        if sentence.has_lexical_ambiguity() {
            return Err(
                "the MasPar engine requires lexically unambiguous sentences (as in the paper); \
                 use the sequential or P-RAM engine for category-ambiguous input"
                    .to_string(),
            );
        }
        let n = sentence.len();
        let q = grammar.num_roles();
        let l = grammar.max_labels_per_role();
        if l * l > 64 {
            return Err(format!("PE submatrix must fit a 64-bit word: l = {l}"));
        }
        let cats = sentence.words().iter().map(|w| w.cats[0]).collect();
        let allowed = (0..q)
            .map(|r| grammar.allowed_labels(RoleId(r as u16)).to_vec())
            .collect();
        Ok(Layout {
            n,
            q,
            l,
            m: n,
            groups: n * q * n,
            cats,
            allowed,
        })
    }

    /// Total virtual PEs: G² = q²·n⁴.
    pub fn virt_pes(&self) -> usize {
        self.groups * self.groups
    }

    /// Group id for (0-based word, role index, modifiee index).
    pub fn group(&self, w: usize, r: usize, m_idx: usize) -> usize {
        debug_assert!(w < self.n && r < self.q && m_idx < self.m);
        (w * self.q + r) * self.m + m_idx
    }

    /// Decode a group id into (word, role index, modifiee index).
    pub fn decode_group(&self, g: usize) -> (usize, usize, usize) {
        let m_idx = g % self.m;
        let wr = g / self.m;
        (wr / self.q, wr % self.q, m_idx)
    }

    /// The modifiee denoted by `m_idx` for a role of word `w`: index 0 is
    /// nil, then ascending positions skipping the word itself.
    pub fn modifiee(&self, w: usize, m_idx: usize) -> Modifiee {
        if m_idx == 0 {
            return Modifiee::Nil;
        }
        // Positions 1..=n excluding w+1, ascending; m_idx 1 picks the first.
        let mut pos = m_idx as u16;
        if pos > w as u16 {
            pos += 1;
        }
        Modifiee::Word(pos)
    }

    /// Inverse of [`Layout::modifiee`].
    pub fn modifiee_index(&self, w: usize, m: Modifiee) -> usize {
        match m {
            Modifiee::Nil => 0,
            Modifiee::Word(pos) => {
                debug_assert_ne!(pos as usize, w + 1, "no word modifies itself");
                if (pos as usize) < w + 1 {
                    pos as usize
                } else {
                    pos as usize - 1
                }
            }
        }
    }

    /// PE id for (column group, row group).
    pub fn pe(&self, cg: usize, rg: usize) -> usize {
        cg * self.groups + rg
    }

    /// Decode a PE id into (column group, row group).
    pub fn decode_pe(&self, pe: usize) -> (usize, usize) {
        (pe / self.groups, pe % self.groups)
    }

    /// Number of *valid* labels for role index `r` (may be < l).
    pub fn labels_of_role(&self, r: usize) -> usize {
        self.allowed[r].len()
    }

    /// The label for (role index, label index), if valid.
    pub fn label_of(&self, r: usize, li: usize) -> Option<LabelId> {
        self.allowed[r].get(li).copied()
    }

    /// Label index of `label` within role `r`'s allowed list.
    pub fn label_index(&self, r: usize, label: LabelId) -> Option<usize> {
        self.allowed[r].iter().position(|&l| l == label)
    }

    /// The (word, role) slot of group `g` — `w · q + r`. Two groups of
    /// one slot meet on the invalid diagonal ("an arc from a role to
    /// itself", Figure 11's disabled PEs).
    pub fn slot_of(&self, g: usize) -> usize {
        g / self.m
    }

    /// The constraint-evaluation binding for role value (group, label idx),
    /// or `None` for an invalid label slot.
    pub fn binding(&self, g: usize, li: usize) -> Option<Binding> {
        let (w, r, m_idx) = self.decode_group(g);
        let label = self.label_of(r, li)?;
        Some(Binding {
            pos: w as u16 + 1,
            role: RoleId(r as u16),
            value: RoleValue::new(self.cats[w], label, self.modifiee(w, m_idx)),
        })
    }

    /// Bit position of (column label, row label) within a PE's submatrix.
    pub fn bit(&self, col_li: usize, row_li: usize) -> u32 {
        debug_assert!(col_li < self.l && row_li < self.l);
        (col_li * self.l + row_li) as u32
    }

    /// Submatrix mask covering every bit of column label `li` (all row
    /// labels `j`): `OR_j 1 << bit(li, j)`. Contiguous because `bit` packs
    /// the submatrix column-major.
    pub fn row_mask(&self, li: usize) -> u64 {
        debug_assert!(li < self.l);
        ((1u64 << self.l) - 1) << (li * self.l)
    }

    /// Submatrix mask covering every bit of row label `lj` (all column
    /// labels `i`): `OR_i 1 << bit(i, lj)`.
    pub fn col_mask(&self, lj: usize) -> u64 {
        debug_assert!(lj < self.l);
        let mut mask = 0u64;
        for i in 0..self.l {
            mask |= 1u64 << self.bit(i, lj);
        }
        mask
    }

    /// Every valid label of role index `r`, as an alive mask.
    pub fn label_mask(&self, r: usize) -> u64 {
        (1u64 << self.labels_of_role(r)) - 1
    }

    /// Initial submatrix of an off-diagonal PE whose column group has
    /// role index `cr` and row group role index `rr`: every valid label
    /// pair set (Figure 9: every role value present before unary
    /// propagation).
    pub fn init_submatrix(&self, cr: usize, rr: usize) -> u64 {
        let row = self.label_mask(rr);
        (0..self.labels_of_role(cr)).fold(0, |bits, i| bits | row << (i * self.l))
    }

    /// Segment map for Figure 12's `scanOr`: one segment per (column
    /// group, row word-role) block — runs of `m` consecutive PEs.
    pub fn block_segments(&self) -> SegmentMap {
        SegmentMap::uniform(self.virt_pes(), self.m)
    }

    /// Segment map for Figure 12's `scanAnd`: one segment per column —
    /// runs of G consecutive PEs.
    pub fn column_segments(&self) -> SegmentMap {
        SegmentMap::uniform(self.virt_pes(), self.groups)
    }

    /// All PEs on the invalid diagonal, ascending: each slot's m×m
    /// block of (column group, row group) pairs.
    pub fn diagonal_pes(&self) -> Vec<usize> {
        let mut pes = Vec::new();
        for cg in 0..self.groups {
            let first = self.slot_of(cg) * self.m;
            pes.extend((first..first + self.m).map(|rg| self.pe(cg, rg)));
        }
        pes
    }

    /// Per-PE oracle for the diagonal: same word and role.
    #[cfg(test)]
    pub(crate) fn is_diagonal(&self, pe: usize) -> bool {
        let (cg, rg) = self.decode_pe(pe);
        let (cw, cr, _) = self.decode_group(cg);
        let (rw, rr, _) = self.decode_group(rg);
        (cw, cr) == (rw, rr)
    }

    /// Per-PE oracle for the initial submatrix: all valid label pairs
    /// set, diagonal PEs empty.
    #[cfg(test)]
    pub(crate) fn init_bits(&self, pe: usize) -> u64 {
        if self.is_diagonal(pe) {
            return 0;
        }
        let (cg, rg) = self.decode_pe(pe);
        let (_, cr, _) = self.decode_group(cg);
        let (_, rr, _) = self.decode_group(rg);
        let mut bits = 0u64;
        for i in 0..self.labels_of_role(cr) {
            for j in 0..self.labels_of_role(rr) {
                bits |= 1u64 << self.bit(i, j);
            }
        }
        bits
    }

    /// Per-PE oracle for the initial alive mask: all valid labels at the
    /// group's boundary PE (the first of its column), 0 elsewhere.
    #[cfg(test)]
    pub(crate) fn init_alive(&self, pe: usize) -> u64 {
        if pe % self.groups != 0 {
            return 0;
        }
        let g = pe / self.groups;
        let (_, r, _) = self.decode_group(g);
        (1u64 << self.labels_of_role(r)) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdg_grammar::grammars::paper;

    fn example() -> (Grammar, Sentence) {
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        (g, s)
    }

    #[test]
    fn row_and_col_masks_cover_their_label_lines() {
        let (g, s) = example();
        let lay = Layout::new(&g, &s);
        for li in 0..lay.l {
            let row: u64 = (0..lay.l).fold(0, |m, j| m | 1u64 << lay.bit(li, j));
            let col: u64 = (0..lay.l).fold(0, |m, i| m | 1u64 << lay.bit(i, li));
            assert_eq!(lay.row_mask(li), row, "row {li}");
            assert_eq!(lay.col_mask(li), col, "col {li}");
        }
    }

    #[test]
    fn figure11_pe_allocation() {
        // "The program runs": 324 PEs total, 108 per column word, PEs 0–2
        // disabled (the governor role of `the` against itself).
        let (g, s) = example();
        let lay = Layout::new(&g, &s);
        assert_eq!(lay.groups, 18);
        assert_eq!(lay.virt_pes(), 324);
        assert_eq!(lay.l, 3);
        // Column word boundaries: groups 0–5 belong to word 1, so PEs
        // 0..108 have column word 1.
        for pe in [0usize, 50, 107] {
            let (cg, _) = lay.decode_pe(pe);
            let (w, _, _) = lay.decode_group(cg);
            assert_eq!(w, 0, "PE {pe} should sit in word 1's columns");
        }
        let (cg, _) = lay.decode_pe(108);
        let (w, _, _) = lay.decode_group(cg);
        assert_eq!(w, 1);
        // PEs 0, 1, 2: column group 0 (the/governor/nil) against row
        // groups 0–2 (the/governor/*) — the self-arc diagonal.
        for pe in 0..3 {
            assert!(
                lay.is_diagonal(pe),
                "PE {pe} is the figure's disabled diagonal"
            );
        }
        // PE 3 connects the/governor to the/needs — a real arc.
        assert!(!lay.is_diagonal(3));
    }

    #[test]
    fn figure13_submatrix_is_l_by_l() {
        let (g, s) = example();
        let lay = Layout::new(&g, &s);
        let bits = lay.init_bits(lay.pe(0, 3)); // the/gov/nil × the/needs/nil
        assert_eq!(bits.count_ones(), 9); // 3×3 labels all valid
        assert_eq!(lay.init_bits(0), 0); // diagonal PE holds nothing
    }

    #[test]
    fn group_roundtrip() {
        let (g, s) = example();
        let lay = Layout::new(&g, &s);
        for gid in 0..lay.groups {
            let (w, r, m) = lay.decode_group(gid);
            assert_eq!(lay.group(w, r, m), gid);
        }
        for pe in (0..lay.virt_pes()).step_by(17) {
            let (cg, rg) = lay.decode_pe(pe);
            assert_eq!(lay.pe(cg, rg), pe);
        }
    }

    #[test]
    fn modifiee_lists_skip_self() {
        let (g, s) = example();
        let lay = Layout::new(&g, &s);
        // Word 1 (index 0): nil, 2, 3. Word 2 (index 1): nil, 1, 3.
        assert_eq!(lay.modifiee(0, 0), Modifiee::Nil);
        assert_eq!(lay.modifiee(0, 1), Modifiee::Word(2));
        assert_eq!(lay.modifiee(0, 2), Modifiee::Word(3));
        assert_eq!(lay.modifiee(1, 1), Modifiee::Word(1));
        assert_eq!(lay.modifiee(1, 2), Modifiee::Word(3));
        assert_eq!(lay.modifiee(2, 1), Modifiee::Word(1));
        assert_eq!(lay.modifiee(2, 2), Modifiee::Word(2));
        // Inverse.
        for w in 0..3 {
            for m_idx in 0..3 {
                let m = lay.modifiee(w, m_idx);
                assert_eq!(lay.modifiee_index(w, m), m_idx);
            }
        }
    }

    #[test]
    fn alive_masks_at_boundaries_only() {
        let (g, s) = example();
        let lay = Layout::new(&g, &s);
        assert_eq!(lay.init_alive(0), 0b111);
        assert_eq!(lay.init_alive(18), 0b111);
        assert_eq!(lay.init_alive(1), 0);
        assert_eq!(lay.init_alive(19), 0);
    }

    #[test]
    fn bindings_carry_the_right_role_values() {
        let (g, s) = example();
        let lay = Layout::new(&g, &s);
        // Group for program/governor/mod=3, label SUBJ.
        let governor = 0usize;
        let m3 = lay.modifiee_index(1, Modifiee::Word(3));
        let gid = lay.group(1, governor, m3);
        let subj = g.label_id("SUBJ").unwrap();
        let li = lay.label_index(governor, subj).unwrap();
        let b = lay.binding(gid, li).unwrap();
        assert_eq!(b.pos, 2);
        assert_eq!(b.value.label, subj);
        assert_eq!(b.value.modifiee, Modifiee::Word(3));
        // Invalid label slot yields None.
        assert_eq!(lay.binding(gid, 5), None);
    }

    #[test]
    fn segment_maps_tile_the_array() {
        let (g, s) = example();
        let lay = Layout::new(&g, &s);
        let blocks = lay.block_segments();
        assert_eq!(blocks.num_segments(), 324 / 3);
        let cols = lay.column_segments();
        assert_eq!(cols.num_segments(), 18);
        assert_eq!(cols.range_of(0), 0..18);
    }

    #[test]
    fn diagonal_count() {
        let (g, s) = example();
        let lay = Layout::new(&g, &s);
        // Each of the 6 word-role slots contributes an m×m diagonal block.
        assert_eq!(lay.diagonal_pes().len(), 6 * 9);
    }

    #[test]
    fn diagonal_pes_match_the_per_pe_oracle() {
        let (g, s) = example();
        let lay = Layout::new(&g, &s);
        let oracle: Vec<usize> = (0..lay.virt_pes())
            .filter(|&pe| lay.is_diagonal(pe))
            .collect();
        assert_eq!(lay.diagonal_pes(), oracle);
    }

    #[test]
    #[should_panic(expected = "unambiguous")]
    fn ambiguous_sentences_rejected() {
        let g = cdg_grammar::grammars::english::grammar();
        let lex = cdg_grammar::grammars::english::lexicon(&g);
        let s = lex.sentence("the watch runs").unwrap();
        Layout::new(&g, &s);
    }

    #[test]
    fn virt_pe_count_matches_q2n4() {
        let (g, _) = example();
        let lex = paper::lexicon(&g);
        for n in [1usize, 2, 5, 10] {
            let words = paper::cost_sweep_sentence(&g, n);
            let lay = Layout::new(&g, &words);
            assert_eq!(lay.virt_pes(), 4 * n.pow(4));
            let _ = lex;
        }
    }
}
