//! The C-subset type representation and record (struct/union) layout.
//!
//! Sizes follow an LP64-style model: `char` = 1, `int`/`unsigned` = 4,
//! `long`/`unsigned long` = 8, pointers = 8. There is no floating point in
//! the subset (none of the paper's measured workload behaviour depends on
//! it; see DESIGN.md).

use std::fmt;

/// Index of a struct/union definition in a [`TypeTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId(pub u32);

/// A C type in the subset.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// `void` — only valid behind a pointer or as a return type.
    Void,
    /// `char` (signed, 1 byte).
    Char,
    /// `int` (4 bytes, signed).
    Int,
    /// `unsigned int`.
    UInt,
    /// `long` (8 bytes, signed).
    Long,
    /// `unsigned long`.
    ULong,
    /// Pointer to a pointee type.
    Ptr(Box<Type>),
    /// Array with element type and optional length (`None` for `[]`).
    Array(Box<Type>, Option<u64>),
    /// Struct or union, by table index.
    Record(RecordId),
    /// Function type (only meaningful behind a pointer or as a declaration).
    Func(Box<FuncType>),
}

/// Signature portion of a function type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FuncType {
    /// Return type.
    pub ret: Type,
    /// Parameter types, after array-to-pointer adjustment.
    pub params: Vec<Type>,
    /// Whether the function is variadic (`...`).
    pub varargs: bool,
}

impl Type {
    /// Convenience constructor for a pointer to `self`.
    pub fn ptr_to(self) -> Type {
        Type::Ptr(Box::new(self))
    }

    /// Whether this is any pointer type (including decayed arrays are *not*
    /// pointers until decay happens).
    pub fn is_ptr(&self) -> bool {
        matches!(self, Type::Ptr(_))
    }

    /// Whether this is an integer type.
    pub fn is_integer(&self) -> bool {
        matches!(
            self,
            Type::Char | Type::Int | Type::UInt | Type::Long | Type::ULong
        )
    }

    /// Whether the integer type is unsigned.
    pub fn is_unsigned(&self) -> bool {
        matches!(self, Type::UInt | Type::ULong)
    }

    /// Pointee type for pointers, element type for arrays.
    pub fn pointee(&self) -> Option<&Type> {
        match self {
            Type::Ptr(inner) => Some(inner),
            Type::Array(inner, _) => Some(inner),
            _ => None,
        }
    }

    /// The type after C's usual rvalue conversions: arrays decay to
    /// pointers to their element type, functions to function pointers.
    pub fn decayed(&self) -> Type {
        match self {
            Type::Array(elem, _) => Type::Ptr(elem.clone()),
            Type::Func(_) => Type::Ptr(Box::new(self.clone())),
            other => other.clone(),
        }
    }

    /// Size in bytes; arrays of unknown length and incomplete records
    /// return `None`.
    pub fn size(&self, table: &TypeTable) -> Option<u64> {
        Some(match self {
            Type::Void => return None,
            Type::Char => 1,
            Type::Int | Type::UInt => 4,
            Type::Long | Type::ULong | Type::Ptr(_) => 8,
            Type::Array(elem, Some(n)) => elem.size(table)?.checked_mul(*n)?,
            Type::Array(_, None) => return None,
            Type::Record(id) => {
                let rec = table.record(*id);
                if !rec.complete {
                    return None;
                }
                rec.size
            }
            Type::Func(_) => return None,
        })
    }

    /// Alignment in bytes.
    pub fn align(&self, table: &TypeTable) -> u64 {
        match self {
            Type::Char => 1,
            Type::Int | Type::UInt => 4,
            Type::Long | Type::ULong | Type::Ptr(_) => 8,
            Type::Array(elem, _) => elem.align(table),
            Type::Record(id) => table.record(*id).align.max(1),
            Type::Void | Type::Func(_) => 1,
        }
    }

    /// Renders the type for diagnostics using record names from `table`.
    pub fn display<'a>(&'a self, table: &'a TypeTable) -> TypeDisplay<'a> {
        TypeDisplay { ty: self, table }
    }
}

/// Helper returned by [`Type::display`].
#[derive(Debug)]
pub struct TypeDisplay<'a> {
    ty: &'a Type,
    table: &'a TypeTable,
}

impl fmt::Display for TypeDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.ty {
            Type::Void => write!(f, "void"),
            Type::Char => write!(f, "char"),
            Type::Int => write!(f, "int"),
            Type::UInt => write!(f, "unsigned"),
            Type::Long => write!(f, "long"),
            Type::ULong => write!(f, "unsigned long"),
            Type::Ptr(inner) => write!(f, "{} *", inner.display(self.table)),
            Type::Array(inner, Some(n)) => {
                write!(f, "{} [{}]", inner.display(self.table), n)
            }
            Type::Array(inner, None) => write!(f, "{} []", inner.display(self.table)),
            Type::Record(id) => {
                let rec = self.table.record(*id);
                let kw = if rec.is_union { "union" } else { "struct" };
                match &rec.tag {
                    Some(tag) => write!(f, "{kw} {tag}"),
                    None => write!(f, "{kw} <anon#{}>", id.0),
                }
            }
            Type::Func(ft) => {
                write!(f, "{} (", ft.ret.display(self.table))?;
                for (i, p) in ft.params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", p.display(self.table))?;
                }
                if ft.varargs {
                    if !ft.params.is_empty() {
                        write!(f, ", ")?;
                    }
                    write!(f, "...")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// One field of a struct or union.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Type,
    /// Byte offset from the start of the record (0 for all union fields).
    pub offset: u64,
}

/// A struct or union definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordDef {
    /// Tag name, if the record was declared with one.
    pub tag: Option<String>,
    /// Whether this is a `union` rather than a `struct`.
    pub is_union: bool,
    /// Laid-out fields (empty while incomplete).
    pub fields: Vec<Field>,
    /// Total size in bytes including tail padding.
    pub size: u64,
    /// Alignment in bytes.
    pub align: u64,
    /// Whether the body has been seen.
    pub complete: bool,
}

impl RecordDef {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// Interning table for record definitions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TypeTable {
    records: Vec<RecordDef>,
}

impl TypeTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new (possibly incomplete) record and returns its id.
    pub fn add_record(&mut self, rec: RecordDef) -> RecordId {
        let id = RecordId(u32::try_from(self.records.len()).expect("record count fits u32"));
        self.records.push(rec);
        id
    }

    /// Immutable access to a record definition.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn record(&self, id: RecordId) -> &RecordDef {
        &self.records[id.0 as usize]
    }

    /// Mutable access to a record definition (used to complete forward
    /// declarations).
    pub fn record_mut(&mut self, id: RecordId) -> &mut RecordDef {
        &mut self.records[id.0 as usize]
    }

    /// Number of records defined.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no records have been defined.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Lays out `fields` (names and types) as a struct or union body and
    /// completes record `id` with the result.
    pub fn complete_record(&mut self, id: RecordId, fields: Vec<(String, Type)>) {
        let is_union = self.record(id).is_union;
        let mut laid = Vec::with_capacity(fields.len());
        let mut offset: u64 = 0;
        let mut align: u64 = 1;
        let mut size: u64 = 0;
        for (name, ty) in fields {
            let fa = ty.align(self);
            let fs = ty.size(self).unwrap_or(0);
            align = align.max(fa);
            let field_offset = if is_union {
                0
            } else {
                offset = round_up(offset, fa);
                let o = offset;
                offset += fs;
                o
            };
            if is_union {
                size = size.max(fs);
            }
            laid.push(Field {
                name,
                ty,
                offset: field_offset,
            });
        }
        if !is_union {
            size = offset;
        }
        size = round_up(size.max(1), align);
        let rec = self.record_mut(id);
        rec.fields = laid;
        rec.size = size;
        rec.align = align;
        rec.complete = true;
    }
}

fn round_up(v: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (v + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        let t = TypeTable::new();
        assert_eq!(Type::Char.size(&t), Some(1));
        assert_eq!(Type::Int.size(&t), Some(4));
        assert_eq!(Type::Long.size(&t), Some(8));
        assert_eq!(Type::Int.ptr_to().size(&t), Some(8));
        assert_eq!(Type::Void.size(&t), None);
    }

    #[test]
    fn array_size_multiplies() {
        let t = TypeTable::new();
        let a = Type::Array(Box::new(Type::Int), Some(10));
        assert_eq!(a.size(&t), Some(40));
        let unsized_a = Type::Array(Box::new(Type::Int), None);
        assert_eq!(unsized_a.size(&t), None);
    }

    #[test]
    fn struct_layout_pads_fields() {
        let mut t = TypeTable::new();
        let id = t.add_record(RecordDef {
            tag: Some("s".into()),
            is_union: false,
            fields: vec![],
            size: 0,
            align: 1,
            complete: false,
        });
        t.complete_record(
            id,
            vec![
                ("c".into(), Type::Char),
                ("p".into(), Type::Char.ptr_to()),
                ("i".into(), Type::Int),
            ],
        );
        let rec = t.record(id);
        assert_eq!(rec.field("c").unwrap().offset, 0);
        assert_eq!(rec.field("p").unwrap().offset, 8);
        assert_eq!(rec.field("i").unwrap().offset, 16);
        assert_eq!(rec.size, 24);
        assert_eq!(rec.align, 8);
    }

    #[test]
    fn union_layout_overlaps() {
        let mut t = TypeTable::new();
        let id = t.add_record(RecordDef {
            tag: None,
            is_union: true,
            fields: vec![],
            size: 0,
            align: 1,
            complete: false,
        });
        t.complete_record(
            id,
            vec![("i".into(), Type::Int), ("p".into(), Type::Void.ptr_to())],
        );
        let rec = t.record(id);
        assert_eq!(rec.field("i").unwrap().offset, 0);
        assert_eq!(rec.field("p").unwrap().offset, 0);
        assert_eq!(rec.size, 8);
    }

    #[test]
    fn decay_rules() {
        let arr = Type::Array(Box::new(Type::Char), Some(4));
        assert_eq!(arr.decayed(), Type::Char.ptr_to());
        assert_eq!(Type::Int.decayed(), Type::Int);
    }

    #[test]
    fn display_renders() {
        let t = TypeTable::new();
        assert_eq!(Type::Char.ptr_to().display(&t).to_string(), "char *");
    }
}
