//! Sema's per-node side tables, stored densely per declaration.
//!
//! Node ids are namespaced per top-level declaration (see
//! [`DECL_ID_STRIDE`]), so the raw id range is sparse: a 16-function
//! unit's ids reach `16 << 20`. A [`DeclIndex`] compresses it. The
//! parser records how many ids each namespace used
//! ([`Unit::decl_spans`](crate::ast::Unit::decl_spans)); namespace `d`
//! then owns one run of slots, and node `id` lives at slot
//! `bounds[id >> DECL_SHIFT] + (id & DECL_MASK)`. Every per-node column of
//! [`SideTables`] is indexed by that slot, so storage is proportional
//! to the number of nodes and a lookup is two array reads. Passes that
//! derive per-node facts of their own index them through the same
//! [`SideTables::index`].

#[cfg(doc)]
use crate::ast::DECL_ID_STRIDE;
use crate::ast::{NodeId, DECL_MASK, DECL_SHIFT};
use crate::fold::ConstValue;
use crate::sema::{
    Branch, BranchId, CallSite, CallSiteId, FuncId, LocalId, Resolution, SwitchId, SwitchInfo,
};
use crate::types::Type;

/// Marks an empty slot in the `u32` id columns.
const NONE: u32 = u32::MAX;

/// Maps node ids to dense slots: namespace `d` owns the slots
/// `bounds[d]..bounds[d + 1]`.
#[derive(Debug, Clone, Default)]
pub struct DeclIndex {
    bounds: Vec<usize>,
}

impl DeclIndex {
    /// Lays out namespaces with the given id counts, in order.
    pub(crate) fn new(spans: &[u32]) -> Self {
        let mut bounds = Vec::with_capacity(spans.len() + 1);
        let mut total = 0usize;
        bounds.push(0);
        for &s in spans {
            total += s as usize;
            bounds.push(total);
        }
        DeclIndex { bounds }
    }

    /// The slot of `id`, or `None` for an id outside every namespace's
    /// span (another unit's id, or no id at all).
    #[inline]
    pub fn slot(&self, id: NodeId) -> Option<usize> {
        let d = (id.0 >> DECL_SHIFT) as usize;
        let slot = *self.bounds.get(d)? + (id.0 & DECL_MASK) as usize;
        (slot < *self.bounds.get(d + 1)?).then_some(slot)
    }

    /// Total number of slots.
    pub fn len(&self) -> usize {
        self.bounds.last().copied().unwrap_or(0)
    }

    /// Whether there are no slots at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of namespaces laid out.
    pub fn namespaces(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// Every id of namespace `d`, in slot order (none past the last
    /// namespace).
    pub fn ids(&self, d: usize) -> impl Iterator<Item = NodeId> {
        let span = match (self.bounds.get(d), self.bounds.get(d + 1)) {
            (Some(&lo), Some(&hi)) => (hi - lo) as u32,
            _ => 0,
        };
        let first = (d as u32) << DECL_SHIFT;
        (0..span).map(move |off| NodeId(first + off))
    }
}

fn some_id(raw: u32) -> Option<u32> {
    (raw != NONE).then_some(raw)
}

/// Everything semantic analysis records about the program beyond the
/// entity lists: per-node facts in dense columns over one
/// [`DeclIndex`], plus per-switch and per-function tables.
#[derive(Debug, Clone, Default)]
pub struct SideTables {
    /// Every call site, indexed by [`CallSiteId`].
    pub call_sites: Vec<CallSite>,
    /// Every two-way branch, indexed by [`BranchId`].
    pub branches: Vec<Branch>,
    /// Every `switch`, indexed by [`SwitchId`].
    pub switches: Vec<SwitchInfo>,
    index: DeclIndex,
    /// The type of every expression node.
    types: Vec<Option<Type>>,
    /// What every `Ident` node refers to.
    resolutions: Vec<Option<Resolution>>,
    /// Call-site id of each `Call` expression node.
    call_site_of: Vec<u32>,
    /// Branch id of each owning statement / `?:` node.
    branch_of: Vec<u32>,
    /// Switch id of each `switch` statement node.
    switch_of: Vec<u32>,
    /// Folded constant values (case labels, enum constants, sizeofs).
    const_values: Vec<Option<ConstValue>>,
    /// String-table index of each string literal node.
    str_of: Vec<u32>,
    /// Word offset of the field each `Member` node selects.
    field_offset_of: Vec<usize>,
    /// The local allocated for each declaration node.
    local_of_decl: Vec<u32>,
    /// Case label values of each switch, per section.
    case_values: Vec<Vec<Vec<i64>>>,
    /// Static count of address-of operations per function.
    address_taken: Vec<u32>,
}

impl SideTables {
    /// Empty tables with one slot for every id of namespaces that used
    /// `spans` ids each.
    pub(crate) fn new(spans: &[u32]) -> Self {
        let index = DeclIndex::new(spans);
        let n = index.len();
        SideTables {
            call_sites: Vec::new(),
            branches: Vec::new(),
            switches: Vec::new(),
            types: vec![None; n],
            resolutions: vec![None; n],
            call_site_of: vec![NONE; n],
            branch_of: vec![NONE; n],
            switch_of: vec![NONE; n],
            const_values: vec![None; n],
            str_of: vec![NONE; n],
            field_offset_of: vec![usize::MAX; n],
            local_of_decl: vec![NONE; n],
            case_values: Vec::new(),
            address_taken: Vec::new(),
            index,
        }
    }

    /// The slot layout every per-node column shares.
    pub fn index(&self) -> &DeclIndex {
        &self.index
    }

    #[inline]
    fn get<'a, T>(&self, column: &'a [T], id: NodeId) -> Option<&'a T> {
        self.index.slot(id).map(|i| &column[i])
    }

    /// The type of an expression node.
    #[inline]
    pub fn ty(&self, id: NodeId) -> Option<&Type> {
        self.get(&self.types, id)?.as_ref()
    }

    /// The type column, one entry per slot of [`index`](Self::index).
    pub fn types(&self) -> &[Option<Type>] {
        &self.types
    }

    /// What an `Ident` node refers to.
    #[inline]
    pub fn resolution(&self, id: NodeId) -> Option<Resolution> {
        *self.get(&self.resolutions, id)?
    }

    /// The call site of a `Call` expression node.
    #[inline]
    pub fn call_site(&self, id: NodeId) -> Option<CallSiteId> {
        some_id(*self.get(&self.call_site_of, id)?).map(CallSiteId)
    }

    /// The branch owned by a statement or `?:` node.
    #[inline]
    pub fn branch(&self, id: NodeId) -> Option<BranchId> {
        some_id(*self.get(&self.branch_of, id)?).map(BranchId)
    }

    /// The switch of a `switch` statement node.
    #[inline]
    pub fn switch(&self, id: NodeId) -> Option<SwitchId> {
        some_id(*self.get(&self.switch_of, id)?).map(SwitchId)
    }

    /// The folded value of a case label, enum constant or `sizeof` node.
    #[inline]
    pub fn const_value(&self, id: NodeId) -> Option<ConstValue> {
        *self.get(&self.const_values, id)?
    }

    /// The string-table index of a string literal node.
    #[inline]
    pub fn str_index(&self, id: NodeId) -> Option<usize> {
        some_id(*self.get(&self.str_of, id)?).map(|i| i as usize)
    }

    /// The word offset, from the start of its struct, of the field a
    /// `Member` node selects. Sema resolves the field name here, so the
    /// engines never search a struct layout by name.
    #[inline]
    pub fn field_offset(&self, id: NodeId) -> Option<usize> {
        let off = *self.get(&self.field_offset_of, id)?;
        (off != usize::MAX).then_some(off)
    }

    /// The local allocated for a declaration node ([`VarDecl::id`]).
    ///
    /// [`VarDecl::id`]: crate::ast::VarDecl::id
    #[inline]
    pub fn local(&self, id: NodeId) -> Option<LocalId> {
        some_id(*self.get(&self.local_of_decl, id)?).map(LocalId)
    }

    /// Case label values of a switch, per section.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a switch of this module.
    pub fn case_values(&self, s: SwitchId) -> &[Vec<i64>] {
        &self.case_values[s.0 as usize]
    }

    /// Static count of address-of operations on function `f` (its name
    /// used as a value). Drives the paper's *pointer node*.
    pub fn address_taken(&self, f: FuncId) -> u32 {
        self.address_taken.get(f.0 as usize).copied().unwrap_or(0)
    }

    /// Every function whose address is taken, with its count, in
    /// [`FuncId`] order.
    pub fn address_taken_funcs(&self) -> impl Iterator<Item = (FuncId, u32)> + '_ {
        self.address_taken
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(f, &n)| (FuncId(f as u32), n))
    }

    #[inline]
    fn at(&self, id: NodeId) -> usize {
        self.index
            .slot(id)
            .expect("the parser sized every namespace to the ids it handed out")
    }

    pub(crate) fn set_ty(&mut self, id: NodeId, ty: Type) {
        let i = self.at(id);
        self.types[i] = Some(ty);
    }

    pub(crate) fn set_resolution(&mut self, id: NodeId, r: Resolution) {
        let i = self.at(id);
        self.resolutions[i] = Some(r);
    }

    pub(crate) fn set_call_site(&mut self, id: NodeId, c: CallSiteId) {
        let i = self.at(id);
        self.call_site_of[i] = c.0;
    }

    pub(crate) fn set_branch(&mut self, id: NodeId, b: BranchId) {
        let i = self.at(id);
        self.branch_of[i] = b.0;
    }

    pub(crate) fn set_switch(&mut self, id: NodeId, s: SwitchId, case_values: Vec<Vec<i64>>) {
        debug_assert_eq!(s.0 as usize, self.case_values.len());
        let i = self.at(id);
        self.switch_of[i] = s.0;
        self.case_values.push(case_values);
    }

    pub(crate) fn set_const(&mut self, id: NodeId, v: ConstValue) {
        let i = self.at(id);
        self.const_values[i] = Some(v);
    }

    pub(crate) fn set_str(&mut self, id: NodeId, s: usize) {
        let i = self.at(id);
        self.str_of[i] = s as u32;
    }

    pub(crate) fn set_field_offset(&mut self, id: NodeId, offset: usize) {
        let i = self.at(id);
        self.field_offset_of[i] = offset;
    }

    pub(crate) fn set_local(&mut self, id: NodeId, l: LocalId) {
        let i = self.at(id);
        self.local_of_decl[i] = l.0;
    }

    /// Counts one use of function `f`'s address; `functions` is the
    /// module's function count.
    pub(crate) fn take_address(&mut self, f: FuncId, functions: usize) {
        self.address_taken.resize(functions, 0);
        self.address_taken[f.0 as usize] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::DECL_ID_STRIDE;

    fn id(decl: u32, off: u32) -> NodeId {
        NodeId(decl * DECL_ID_STRIDE + off)
    }

    #[test]
    fn slots_are_dense_per_namespace() {
        let ix = DeclIndex::new(&[3, 2]);
        assert_eq!(ix.len(), 5);
        assert_eq!(ix.slot(id(0, 0)), Some(0));
        assert_eq!(ix.slot(id(0, 2)), Some(2));
        assert_eq!(ix.slot(id(1, 0)), Some(3));
        assert_eq!(ix.slot(id(1, 1)), Some(4));
    }

    #[test]
    fn ids_past_a_namespace_span_have_no_slot() {
        let ix = DeclIndex::new(&[3, 2]);
        // Offset 3 of namespace 0 would alias namespace 1's first slot.
        assert_eq!(ix.slot(id(0, 3)), None);
        assert_eq!(ix.slot(id(1, 2)), None);
        assert_eq!(ix.slot(id(0, DECL_MASK)), None);
        // Namespaces past the last one.
        assert_eq!(ix.slot(id(2, 0)), None);
        assert_eq!(ix.slot(NodeId(u32::MAX)), None);
    }

    #[test]
    fn an_empty_namespace_owns_no_slots() {
        let ix = DeclIndex::new(&[2, 0, 1]);
        assert_eq!(ix.len(), 3);
        assert_eq!(ix.slot(id(1, 0)), None);
        assert_eq!(ix.slot(id(2, 0)), Some(2));
        assert_eq!(ix.ids(1).count(), 0);
        assert_eq!(ix.ids(2).collect::<Vec<_>>(), vec![id(2, 0)]);
        assert_eq!(ix.ids(3).count(), 0);
    }

    #[test]
    fn default_tables_answer_none() {
        let t = SideTables::default();
        assert!(t.index().is_empty());
        assert_eq!(t.ty(NodeId(0)), None);
        assert_eq!(t.resolution(NodeId(0)), None);
        assert_eq!(t.call_site(NodeId(0)), None);
        assert_eq!(t.address_taken(FuncId(0)), 0);
        assert_eq!(t.address_taken_funcs().count(), 0);
    }

    /// Every node id of the unit, in slot order.
    fn unit_ids(m: &crate::Module) -> Vec<NodeId> {
        let ix = m.side.index();
        (0..ix.namespaces()).flat_map(|d| ix.ids(d)).collect()
    }

    #[test]
    fn ids_read_their_own_declarations_rows() {
        // Two functions of the same shape: offset k of `g`'s namespace
        // must read `g`'s row, never `f`'s at the same offset.
        let m =
            crate::compile("int f(void) { return 1; }\nchar *g(void) { return \"x\"; }\n").unwrap();
        let body = |name: &str| {
            let f = m.function(m.function_id(name).unwrap());
            f.body.as_ref().unwrap()
        };
        let mut f_ret = None;
        body("f").walk_exprs(&mut |e| f_ret = Some(e.id));
        let mut g_ret = None;
        body("g").walk_exprs(&mut |e| g_ret = Some(e.id));
        let (f_ret, g_ret) = (f_ret.unwrap(), g_ret.unwrap());
        assert_eq!(f_ret.0 & DECL_MASK, g_ret.0 & DECL_MASK);
        assert_ne!(f_ret.0 >> DECL_SHIFT, g_ret.0 >> DECL_SHIFT);
        assert_eq!(m.type_of(f_ret), &Type::Int);
        assert_eq!(m.type_of(g_ret), &Type::Ptr(Box::new(Type::Char)));
        assert_eq!(m.side.str_index(f_ret), None);
        assert_eq!(m.side.str_index(g_ret), Some(0));
        // Every id of the unit owns a distinct slot.
        let mut slots: Vec<usize> = unit_ids(&m)
            .into_iter()
            .map(|id| m.side.index().slot(id).unwrap())
            .collect();
        let n = slots.len();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), n);
        assert_eq!(n, m.side.index().len());
    }

    #[test]
    fn ids_past_a_declarations_span_read_nothing() {
        let m = crate::compile("int f(int a) { return a + 1; }\nint g(void) { return f(2); }\n")
            .unwrap();
        let ix = m.side.index();
        assert_eq!(ix.namespaces(), 2);
        let past_f = NodeId(ix.ids(0).last().unwrap().0 + 1);
        assert_eq!(past_f.0 >> DECL_SHIFT, 0, "still inside f's stride");
        assert_eq!(ix.slot(past_f), None);
        assert_eq!(m.side.ty(past_f), None);
        assert_eq!(m.side.resolution(past_f), None);
        assert_eq!(m.side.call_site(past_f), None);
        // A namespace the unit never opened, and the largest id.
        assert_eq!(m.side.ty(id(2, 0)), None);
        assert_eq!(m.side.ty(NodeId(u32::MAX)), None);
    }

    #[test]
    fn an_empty_unit_has_no_slots() {
        let m = crate::compile("").unwrap();
        assert!(m.side.index().is_empty());
        assert_eq!(m.side.index().namespaces(), 0);
        assert_eq!(m.side.ty(NodeId(0)), None);
    }

    #[test]
    fn declarations_past_the_last_namespace_share_it() {
        // 5000 declarations outrun the 4096 namespaces; the rest run on
        // sequentially in the last one, and every id still has a slot.
        let mut src: String = (0..5000).map(|i| format!("int g{i};\n")).collect();
        src.push_str("int main(void) { g4999 = 1; return g4999 + g0; }\n");
        let m = crate::compile(&src).unwrap();
        assert_eq!(m.side.index().namespaces(), 4096);
        let main = m.function(m.function_id("main").unwrap());
        main.body.as_ref().unwrap().walk_exprs(&mut |e| {
            assert_eq!(m.type_of(e.id), &Type::Int);
        });
    }

    #[test]
    fn every_suite_expression_has_a_type() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../suite/programs");
        let mut programs = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let src = std::fs::read_to_string(&path).unwrap();
            let m = crate::compile(&src).unwrap();
            let mut exprs = 0;
            for f in m.defined_functions() {
                let body = f.body.as_ref().unwrap();
                // Case labels are folded, not typed.
                let mut labels = Vec::new();
                body.walk(&mut |s| {
                    if let crate::ast::StmtKind::Switch(_, sections) = &s.kind {
                        labels.extend(sections.iter().flat_map(|sec| &sec.labels).map(|l| l.id));
                    }
                });
                body.walk_exprs(&mut |e| {
                    if labels.contains(&e.id) {
                        assert!(
                            m.side.const_value(e.id).is_some(),
                            "{path:?}: label {}",
                            e.id
                        );
                        assert_eq!(m.side.ty(e.id), None);
                    } else {
                        // Panics if the expression has no type.
                        let _ = m.type_of(e.id);
                        exprs += 1;
                    }
                });
            }
            assert!(exprs > 100, "{path:?}: only {exprs} expressions");
            programs += 1;
        }
        assert_eq!(programs, 14);
    }
}
