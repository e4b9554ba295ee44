//! The MiniC type system.
//!
//! A [`CType`] is a copyable handle: a base type (void, an integer, a
//! struct or an array) under a count of pointer levels. Pointers and
//! pointees are arithmetic on that count; only arrays live in a table,
//! the program's [`Layouts`], which also holds every struct and answers
//! sizes and alignments. Sema builds each array type once, with its size
//! checked against [`MAX_OBJECT_SIZE`], so no size query can overflow.

use std::fmt;

/// Width of an integer type, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IntWidth {
    /// `char`.
    W1,
    /// `short`.
    W2,
    /// `int`.
    W4,
    /// `long` (also pointers' width).
    W8,
}

impl IntWidth {
    /// Size in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            IntWidth::W1 => 1,
            IntWidth::W2 => 2,
            IntWidth::W4 => 4,
            IntWidth::W8 => 8,
        }
    }

    /// Width from a byte count.
    ///
    /// # Panics
    ///
    /// Panics on byte counts other than 1, 2, 4, 8.
    pub fn from_bytes(bytes: u8) -> IntWidth {
        match bytes {
            1 => IntWidth::W1,
            2 => IntWidth::W2,
            4 => IntWidth::W4,
            8 => IntWidth::W8,
            other => panic!("bad integer width: {other}"),
        }
    }
}

/// The largest object (global, local, struct or array) a program may
/// declare, in bytes: 16 MiB, above every region a guest gets by default
/// (4 MiB of globals, an 8 MiB stack).
pub const MAX_OBJECT_SIZE: u64 = 1 << 24;

/// Identifier of a struct definition within a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StructId(pub u32);

/// Identifier of an array type within a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayId(pub u32);

/// What a type is under its pointer levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Base {
    Void,
    Int(IntWidth, bool),
    Struct(StructId),
    Array(ArrayId),
}

/// A resolved MiniC type (see the module docs). Two handles are equal
/// exactly when they name the same type.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct CType {
    base: Base,
    pointers: u32,
}

/// One level of a type, for matching on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeKind {
    /// `void` (function returns and `void*` pointees only).
    Void,
    /// An integer type.
    Int {
        /// Width in bytes.
        width: IntWidth,
        /// Signedness. `char` is signed.
        signed: bool,
    },
    /// Pointer to a type.
    Ptr(CType),
    /// Fixed-size array ([`Layouts::array`] has its element and length).
    Array(ArrayId),
    /// A struct by id (layout lives in the program's struct table).
    Struct(StructId),
}

impl CType {
    const fn base(base: Base) -> CType {
        CType { base, pointers: 0 }
    }

    /// `void`.
    pub const VOID: CType = CType::base(Base::Void);
    /// `char`.
    pub const CHAR: CType = CType::int(IntWidth::W1, true);
    /// `unsigned char`.
    pub const UCHAR: CType = CType::int(IntWidth::W1, false);
    /// `int`.
    pub const INT: CType = CType::int(IntWidth::W4, true);
    /// `unsigned int`.
    pub const UINT: CType = CType::int(IntWidth::W4, false);
    /// `long`.
    pub const LONG: CType = CType::int(IntWidth::W8, true);
    /// `unsigned long` / `size_t`.
    pub const ULONG: CType = CType::int(IntWidth::W8, false);
    /// `char*`.
    pub const CHAR_PTR: CType = CType::CHAR.ptr();
    /// `void*`.
    pub const VOID_PTR: CType = CType::VOID.ptr();

    /// An integer type.
    pub const fn int(width: IntWidth, signed: bool) -> CType {
        CType::base(Base::Int(width, signed))
    }

    /// A struct type.
    pub(crate) const fn structure(id: StructId) -> CType {
        CType::base(Base::Struct(id))
    }

    /// Pointer to this type.
    pub const fn ptr(self) -> CType {
        CType {
            base: self.base,
            pointers: self.pointers + 1,
        }
    }

    /// The outermost level of this type.
    pub fn kind(self) -> TypeKind {
        if self.pointers > 0 {
            return TypeKind::Ptr(CType {
                base: self.base,
                pointers: self.pointers - 1,
            });
        }
        match self.base {
            Base::Void => TypeKind::Void,
            Base::Int(width, signed) => TypeKind::Int { width, signed },
            Base::Struct(id) => TypeKind::Struct(id),
            Base::Array(id) => TypeKind::Array(id),
        }
    }

    /// Whether this is `void`.
    pub fn is_void(self) -> bool {
        self == CType::VOID
    }

    /// Whether this is any integer type.
    pub fn is_integer(self) -> bool {
        matches!(self.kind(), TypeKind::Int { .. })
    }

    /// Whether this is a pointer type.
    pub fn is_pointer(self) -> bool {
        self.pointers > 0
    }

    /// Whether this is an integer or pointer (usable in conditions and
    /// scalar assignment).
    pub fn is_scalar(self) -> bool {
        self.is_integer() || self.is_pointer()
    }

    /// For pointers, the pointee type.
    pub fn pointee(self) -> Option<CType> {
        match self.kind() {
            TypeKind::Ptr(t) => Some(t),
            _ => None,
        }
    }

    /// Signedness of integer types (pointers behave as unsigned).
    pub fn is_signed(self) -> bool {
        matches!(self.kind(), TypeKind::Int { signed: true, .. })
    }
}

/// Spells the type as [`Layouts::name`] does, with arrays by id.
impl fmt::Debug for CType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.base {
            Base::Array(id) => write!(f, "array#{}", id.0)?,
            _ => base_name(f, self.base)?,
        }
        (0..self.pointers).try_for_each(|_| f.write_str("*"))
    }
}

fn base_name(f: &mut fmt::Formatter<'_>, base: Base) -> fmt::Result {
    let name = match base {
        Base::Void => "void",
        Base::Int(IntWidth::W1, true) => "char",
        Base::Int(IntWidth::W1, false) => "unsigned char",
        Base::Int(IntWidth::W2, true) => "short",
        Base::Int(IntWidth::W2, false) => "unsigned short",
        Base::Int(IntWidth::W4, true) => "int",
        Base::Int(IntWidth::W4, false) => "unsigned int",
        Base::Int(IntWidth::W8, true) => "long",
        Base::Int(IntWidth::W8, false) => "unsigned long",
        Base::Struct(id) => return write!(f, "struct#{}", id.0),
        Base::Array(_) => unreachable!("arrays are named through their layout"),
    };
    f.write_str(name)
}

/// A struct field with resolved layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldLayout {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: CType,
    /// Byte offset from the struct base.
    pub offset: u64,
}

/// A struct with computed size and alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructLayout {
    /// Struct tag.
    pub name: String,
    /// Fields in declaration order with offsets.
    pub fields: Vec<FieldLayout>,
    /// Total size in bytes (padded to alignment).
    pub size: u64,
    /// Alignment in bytes.
    pub align: u64,
}

impl StructLayout {
    /// Finds a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldLayout> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// An array type: `len` elements of `elem`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayLayout {
    /// Element type.
    pub elem: CType,
    /// Element count.
    pub len: u64,
    /// Total size in bytes (at most [`MAX_OBJECT_SIZE`]).
    pub size: u64,
    /// Alignment in bytes (the element's).
    pub align: u64,
}

/// Size/alignment oracle: resolves struct and array ids.
#[derive(Debug, Clone, Default)]
pub struct Layouts {
    /// Struct layouts indexed by [`StructId`].
    pub structs: Vec<StructLayout>,
    /// Array types indexed by [`ArrayId`].
    pub arrays: Vec<ArrayLayout>,
}

impl Layouts {
    /// Size of a type in bytes.
    ///
    /// # Panics
    ///
    /// Panics on `void` (which has no size) and unknown ids.
    pub fn size_of(&self, ty: CType) -> u64 {
        match ty.kind() {
            TypeKind::Void => panic!("void has no size"),
            TypeKind::Int { width, .. } => width.bytes(),
            TypeKind::Ptr(_) => 8,
            TypeKind::Array(id) => self.array(id).size,
            TypeKind::Struct(id) => self.layout(id).size,
        }
    }

    /// Alignment of a type in bytes.
    pub fn align_of(&self, ty: CType) -> u64 {
        match ty.kind() {
            TypeKind::Void => 1,
            TypeKind::Int { width, .. } => width.bytes(),
            TypeKind::Ptr(_) => 8,
            TypeKind::Array(id) => self.array(id).align,
            TypeKind::Struct(id) => self.layout(id).align,
        }
    }

    /// Layout for a struct id.
    pub fn layout(&self, id: StructId) -> &StructLayout {
        &self.structs[id.0 as usize]
    }

    /// An array type by id.
    pub fn array(&self, id: ArrayId) -> &ArrayLayout {
        &self.arrays[id.0 as usize]
    }

    /// Element type and length when `ty` is an array.
    pub(crate) fn array_of(&self, ty: CType) -> Option<(CType, u64)> {
        match ty.kind() {
            TypeKind::Array(id) => Some((self.array(id).elem, self.array(id).len)),
            _ => None,
        }
    }

    /// Adds the type `len` elements of `elem`, which must be sized; `None`
    /// when it would be larger than [`MAX_OBJECT_SIZE`]. Callers dedupe:
    /// two calls add two ids.
    pub(crate) fn add_array(&mut self, elem: CType, len: u64) -> Option<CType> {
        let size = self.size_of(elem).checked_mul(len)?;
        if size > MAX_OBJECT_SIZE {
            return None;
        }
        let id = ArrayId(self.arrays.len() as u32);
        self.arrays.push(ArrayLayout {
            elem,
            len,
            size,
            align: self.align_of(elem),
        });
        Some(CType::base(Base::Array(id)))
    }

    /// The array-to-pointer decayed version of `ty`.
    pub(crate) fn decayed(&self, ty: CType) -> CType {
        match self.array_of(ty) {
            Some((elem, _)) => elem.ptr(),
            None => ty,
        }
    }

    /// The type's C spelling (`char*`, `int[4]`, `struct#0`).
    pub fn name(&self, ty: CType) -> TypeName<'_> {
        TypeName { layouts: self, ty }
    }
}

/// A type spelled in C (see [`Layouts::name`]).
pub struct TypeName<'a> {
    layouts: &'a Layouts,
    ty: CType,
}

impl fmt::Display for TypeName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let CType { base, pointers } = self.ty;
        match base {
            Base::Array(id) => {
                let a = self.layouts.array(id);
                write!(f, "{}[{}]", self.layouts.name(a.elem), a.len)?;
            }
            _ => base_name(f, base)?,
        }
        (0..pointers).try_for_each(|_| f.write_str("*"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        let mut layouts = Layouts::default();
        let ints = layouts.add_array(CType::INT, 4).unwrap();
        assert_eq!(layouts.name(CType::CHAR).to_string(), "char");
        assert_eq!(layouts.name(CType::UCHAR).to_string(), "unsigned char");
        assert_eq!(layouts.name(CType::CHAR_PTR).to_string(), "char*");
        assert_eq!(layouts.name(ints).to_string(), "int[4]");
        assert_eq!(layouts.name(ints.ptr()).to_string(), "int[4]*");
        assert_eq!(format!("{:?}", ints.ptr()), "array#0*");
        assert_eq!(CType::CHAR_PTR.pointee(), Some(CType::CHAR));
        assert_eq!(CType::CHAR_PTR.kind(), TypeKind::Ptr(CType::CHAR));
        assert_eq!(ints.pointee(), None);
        assert!(CType::VOID_PTR.is_scalar() && !CType::VOID_PTR.is_signed());
    }

    #[test]
    fn decay_turns_arrays_into_pointers() {
        let mut layouts = Layouts::default();
        let arr = layouts.add_array(CType::CHAR, 10).unwrap();
        assert_eq!(layouts.decayed(arr), CType::CHAR_PTR);
        assert_eq!(layouts.decayed(CType::INT), CType::INT);
    }

    #[test]
    fn sizes_and_alignment() {
        let mut layouts = Layouts {
            structs: vec![StructLayout {
                name: "pair".into(),
                fields: vec![
                    FieldLayout {
                        name: "a".into(),
                        ty: CType::CHAR,
                        offset: 0,
                    },
                    FieldLayout {
                        name: "b".into(),
                        ty: CType::LONG,
                        offset: 8,
                    },
                ],
                size: 16,
                align: 8,
            }],
            arrays: Vec::new(),
        };
        let pair = CType::structure(StructId(0));
        let ints = layouts.add_array(CType::INT, 5).unwrap();
        let longs = layouts.add_array(CType::LONG, 2).unwrap();
        assert_eq!(layouts.size_of(CType::INT), 4);
        assert_eq!(layouts.size_of(CType::CHAR_PTR), 8);
        assert_eq!(layouts.size_of(ints), 20);
        assert_eq!(layouts.size_of(pair), 16);
        assert_eq!(layouts.align_of(pair), 8);
        assert_eq!(layouts.align_of(longs), 8);
    }

    #[test]
    fn oversized_arrays_are_refused() {
        let mut layouts = Layouts::default();
        assert!(layouts.add_array(CType::CHAR, MAX_OBJECT_SIZE).is_some());
        assert!(layouts
            .add_array(CType::CHAR, MAX_OBJECT_SIZE + 1)
            .is_none());
        assert!(layouts.add_array(CType::LONG, 1 << 61).is_none());
        let wide = layouts.add_array(CType::CHAR, 8).unwrap();
        assert!(layouts.add_array(wide, 1 << 62).is_none());
    }
}
