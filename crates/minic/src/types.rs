//! Semantic types and struct layout for MiniC.
//!
//! Memory is **word-addressed**: every scalar (int, char, float, pointer,
//! function pointer) occupies exactly one cell. This simplification (vs.
//! byte-addressed C) does not affect frequency estimation — see DESIGN.md.

use crate::symbol::Symbol;
use std::fmt;

/// The largest type sema can size, in words: a bigger word count times
/// the size of an [`InitWord`](crate::sema::InitWord) would exceed
/// `isize::MAX` bytes, which no allocation can hold. Sizing past it is
/// a diagnostic, not a wrapped count or an allocator panic.
pub const MAX_OBJECT_WORDS: usize =
    isize::MAX as usize / std::mem::size_of::<crate::sema::InitWord>();

/// The static-size budget, in words: the most that sema lets the data
/// image (every global) or any one function's stack frame take. That is
/// 2^24 words, 256 MiB of 16-byte VM words. The VM allocates both in
/// full, so a program over the budget gets a diagnostic and is never
/// run into an allocation abort. At run time both engines hold the heap,
/// and the live stack (every active frame together), to the same
/// budget. The suite and the program generators stay far below it.
pub const MAX_STATIC_WORDS: usize = 1 << 24;

/// Identifies a struct definition within a module.
// The derived `partial_cmp` delegates to `Ord` on a `u32` — total, so
// exempt from the workspace NaN-ordering ban (clippy.toml).
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructId(pub u32);

/// A resolved MiniC type.
#[derive(Debug, Clone, PartialEq)]
pub enum Type {
    /// `void` (only as a return type or behind a pointer).
    Void,
    /// 64-bit signed integer (covers `int`, `long`, `unsigned`).
    Int,
    /// Character; integer-valued but distinct so `char *` is string-like.
    Char,
    /// 64-bit float (covers `float` and `double`).
    Float,
    /// Pointer to a type.
    Ptr(Box<Type>),
    /// Array with element type and length (in elements).
    Array(Box<Type>, usize),
    /// A struct by id.
    Struct(StructId),
    /// Pointer to a function with the given signature.
    FnPtr(Box<FuncSig>),
}

/// A function signature.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncSig {
    /// Return type.
    pub ret: Type,
    /// Parameter types.
    pub params: Vec<Type>,
    /// Whether extra arguments are accepted (builtins like `printf`).
    pub varargs: bool,
}

impl Type {
    /// Returns `true` for `Int` and `Char` (integer-valued scalars).
    pub fn is_integral(&self) -> bool {
        matches!(self, Type::Int | Type::Char)
    }

    /// Returns `true` for any type usable in arithmetic (`Int`, `Char`, `Float`).
    pub fn is_arithmetic(&self) -> bool {
        matches!(self, Type::Int | Type::Char | Type::Float)
    }

    /// Returns `true` for pointer or array types (arrays decay to pointers).
    pub fn is_pointer_like(&self) -> bool {
        matches!(self, Type::Ptr(_) | Type::Array(_, _) | Type::FnPtr(_))
    }

    /// Returns `true` if values of this type can be tested in a condition.
    pub fn is_scalar(&self) -> bool {
        self.is_arithmetic() || self.is_pointer_like()
    }

    /// The type this pointer or array points at, if any.
    pub fn pointee(&self) -> Option<&Type> {
        match self {
            Type::Ptr(t) => Some(t),
            Type::Array(t, _) => Some(t),
            _ => None,
        }
    }

    /// The decayed form: arrays become pointers to their element type.
    pub fn decayed(&self) -> Type {
        match self {
            Type::Array(elem, _) => Type::Ptr(elem.clone()),
            other => other.clone(),
        }
    }

    /// Size in words (cells), or `None` for `Void` (including `void`
    /// reached through an array element type) and for arrays whose
    /// word count overflows or exceeds [`MAX_OBJECT_WORDS`]. Structs
    /// require the layout table. This is the fallible query sema uses
    /// to turn sizeless types into diagnostics instead of aborts.
    pub fn try_size_words(&self, layouts: &StructLayouts) -> Option<usize> {
        match self {
            Type::Void => None,
            Type::Int | Type::Char | Type::Float | Type::Ptr(_) | Type::FnPtr(_) => Some(1),
            Type::Array(elem, n) => elem
                .try_size_words(layouts)?
                .checked_mul(*n)
                .filter(|&words| words <= MAX_OBJECT_WORDS),
            Type::Struct(id) => Some(layouts.layout(*id).size),
        }
    }

    /// Size in words (cells). Structs require the layout table.
    ///
    /// # Panics
    ///
    /// Panics if `self` has no size (`Void`, or an oversized array);
    /// callers must size only object types — sema guarantees that for
    /// every type it admits into a sized position (see
    /// [`Type::try_size_words`]).
    pub fn size_words(&self, layouts: &StructLayouts) -> usize {
        self.try_size_words(layouts)
            .unwrap_or_else(|| panic!("{self} has no size"))
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Int => write!(f, "int"),
            Type::Char => write!(f, "char"),
            Type::Float => write!(f, "float"),
            Type::Ptr(t) => write!(f, "{t}*"),
            Type::Array(t, n) => write!(f, "{t}[{n}]"),
            Type::Struct(id) => write!(f, "struct#{}", id.0),
            Type::FnPtr(sig) => {
                write!(f, "{}(*)(", sig.ret)?;
                for (i, p) in sig.params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// One field of a laid-out struct.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldLayout {
    /// Field name.
    pub name: Symbol,
    /// Field type.
    pub ty: Type,
    /// Offset from the start of the struct, in words.
    pub offset: usize,
}

/// The computed layout of a struct.
#[derive(Debug, Clone, PartialEq)]
pub struct StructLayout {
    /// Struct tag.
    pub name: Symbol,
    /// Fields in declaration order with offsets.
    pub fields: Vec<FieldLayout>,
    /// Total size in words.
    pub size: usize,
}

impl StructLayout {
    /// Finds a field by name.
    pub fn field(&self, name: Symbol) -> Option<&FieldLayout> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// All struct layouts in a module, indexed by [`StructId`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StructLayouts {
    layouts: Vec<StructLayout>,
}

impl StructLayouts {
    /// Creates an empty table.
    pub fn new() -> Self {
        StructLayouts::default()
    }

    /// Adds a layout, returning its id.
    pub fn push(&mut self, layout: StructLayout) -> StructId {
        let id = StructId(self.layouts.len() as u32);
        self.layouts.push(layout);
        id
    }

    /// Looks up a layout.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in this table.
    pub fn layout(&self, id: StructId) -> &StructLayout {
        &self.layouts[id.0 as usize]
    }

    /// Mutable access for layout construction (crate-internal).
    pub(crate) fn layout_mut(&mut self, slot: usize) -> &mut StructLayout {
        &mut self.layouts[slot]
    }

    /// Finds a struct id by tag name.
    pub fn by_name(&self, name: Symbol) -> Option<StructId> {
        self.layouts
            .iter()
            .position(|l| l.name == name)
            .map(|i| StructId(i as u32))
    }

    /// Number of structs.
    pub fn len(&self) -> usize {
        self.layouts.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.layouts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes_are_one_word() {
        let layouts = StructLayouts::new();
        assert_eq!(Type::Int.size_words(&layouts), 1);
        assert_eq!(Type::Ptr(Box::new(Type::Char)).size_words(&layouts), 1);
    }

    #[test]
    fn array_and_struct_sizes() {
        let mut names = crate::symbol::Interner::new();
        let [point, x, y] = ["point", "x", "y"].map(|s| names.intern(s));
        let mut layouts = StructLayouts::new();
        let id = layouts.push(StructLayout {
            name: point,
            fields: vec![
                FieldLayout {
                    name: x,
                    ty: Type::Int,
                    offset: 0,
                },
                FieldLayout {
                    name: y,
                    ty: Type::Int,
                    offset: 1,
                },
            ],
            size: 2,
        });
        assert_eq!(Type::Struct(id).size_words(&layouts), 2);
        assert_eq!(
            Type::Array(Box::new(Type::Struct(id)), 5).size_words(&layouts),
            10
        );
        assert_eq!(layouts.by_name(point), Some(id));
        assert_eq!(layouts.layout(id).field(y).unwrap().offset, 1);
    }

    #[test]
    fn oversized_arrays_have_no_size() {
        let layouts = StructLayouts::new();
        let array = |elem: Type, n: usize| Type::Array(Box::new(elem), n);
        // 2^62 rows of 4 words is 2^64 words: the product wraps to 0.
        let wraps = array(array(Type::Int, 4), 1 << 62);
        assert_eq!(wraps.try_size_words(&layouts), None);
        let too_big = array(Type::Int, isize::MAX as usize);
        assert_eq!(too_big.try_size_words(&layouts), None);
        let largest = array(Type::Int, MAX_OBJECT_WORDS);
        assert_eq!(largest.try_size_words(&layouts), Some(MAX_OBJECT_WORDS));
        let over = array(array(Type::Int, 2), MAX_OBJECT_WORDS / 2 + 1);
        assert_eq!(over.try_size_words(&layouts), None);
    }

    #[test]
    fn decay_turns_arrays_into_pointers() {
        let arr = Type::Array(Box::new(Type::Char), 8);
        assert_eq!(arr.decayed(), Type::Ptr(Box::new(Type::Char)));
        assert!(arr.is_pointer_like());
    }

    #[test]
    fn display_is_readable() {
        let t = Type::Ptr(Box::new(Type::Ptr(Box::new(Type::Char))));
        assert_eq!(format!("{t}"), "char**");
    }
}
