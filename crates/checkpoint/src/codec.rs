//! Little-endian binary encoding for snapshot section payloads, and the
//! one description per section that both directions walk.
//!
//! Everything in a snapshot is built from a handful of [`Field`] types —
//! fixed-width integers, `f64` bit patterns (so `-0.0`, infinities and
//! NaNs round-trip exactly, a requirement for bit-identical resume),
//! length-prefixed strings and vectors — plus the sparse-matrix
//! structures the pipeline persists.
//!
//! A section is one function generic over [`Codec`] that visits its
//! fields in byte order: [`Enc`] writes each field it is handed, [`Dec`]
//! overwrites it with what it reads. The field order is the byte order,
//! stated once; [`encode`] and [`decode`] run a walk over a whole payload.

use crate::snapshot::CheckpointError;
use gplu_sparse::{Csc, Csr, Idx, Permutation};
use std::fmt::Debug;
use std::mem::{discriminant, size_of};

/// A value with a fixed on-disk encoding.
pub trait Field: Sized {
    /// Fewest bytes one encoded value takes. A length prefix is checked
    /// against the bytes left before anything is allocated.
    const MIN_BYTES: usize;
    /// Appends the encoding.
    fn put(&self, e: &mut Enc);
    /// Reads one value; `what` names it in the error.
    fn take(d: &mut Dec<'_>, what: &str) -> Result<Self, CheckpointError>;
}

/// Encoder: appends fields to a growing byte buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Finishes encoding and returns the payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one field.
    #[inline]
    pub fn put<F: Field>(&mut self, v: &F) {
        v.put(self);
    }
}

/// Decoder: a cursor over a section payload. Every read is bounds-checked
/// and fails with [`CheckpointError::Corrupt`] instead of panicking —
/// snapshots are untrusted input (truncated writes, bit rot).
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Wraps a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads one field.
    #[inline]
    pub fn take<F: Field>(&mut self, what: &str) -> Result<F, CheckpointError> {
        F::take(self, what)
    }

    #[inline]
    fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(malformed(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a length prefix, refusing one that claims more elements of
    /// at least `elem_bytes` each than the payload has bytes left.
    fn len(&mut self, elem_bytes: usize, what: &str) -> Result<usize, CheckpointError> {
        let claimed = u64::take(self, what)?;
        match claimed.checked_mul(elem_bytes as u64) {
            Some(need) if need <= self.remaining() as u64 => Ok(claimed as usize),
            _ => Err(malformed(what)),
        }
    }
}

fn malformed(what: &str) -> CheckpointError {
    CheckpointError::Corrupt(format!("section payload truncated or malformed: {what}"))
}

/// One direction of a section walk.
pub trait Codec {
    /// `true` for [`Dec`]: the walked fields are outputs, so a walk
    /// makes room for a list's next element before walking it, and
    /// checks what spans fields once they are read.
    const DECODES: bool;

    /// Writes `v`, or overwrites it with the next value read.
    fn field<F: Field>(&mut self, v: &mut F, what: &str) -> Result<(), CheckpointError>;

    /// Writes `v` as the one-byte tag that `table` pairs with its
    /// variant, or reads a tag and sets `v` to the table's variant (the
    /// variant's fields, if any, are walked after it).
    fn tag<T: Clone>(
        &mut self,
        v: &mut T,
        table: &[(u8, T)],
        what: &str,
    ) -> Result<(), CheckpointError> {
        let mut t = if Self::DECODES { 0 } else { tag_of(table, v) };
        self.field(&mut t, what)?;
        if Self::DECODES {
            *v = table
                .iter()
                .find(|(k, _)| *k == t)
                .map(|(_, x)| x.clone())
                .ok_or_else(|| CheckpointError::Corrupt(format!("{what}: unknown tag {t}")))?;
        }
        Ok(())
    }
}

impl Codec for Enc {
    const DECODES: bool = false;

    fn field<F: Field>(&mut self, v: &mut F, _what: &str) -> Result<(), CheckpointError> {
        v.put(self);
        Ok(())
    }
}

impl Codec for Dec<'_> {
    const DECODES: bool = true;

    fn field<F: Field>(&mut self, v: &mut F, what: &str) -> Result<(), CheckpointError> {
        *v = F::take(self, what)?;
        Ok(())
    }
}

/// The tag that `table` — each variant of an enum once, beside its
/// on-disk tag — pairs with `v`'s variant.
pub fn tag_of<T>(table: &[(u8, T)], v: &T) -> u8 {
    table
        .iter()
        .find(|(_, x)| discriminant(x) == discriminant(v))
        .map(|(t, _)| *t)
        .expect("a tag table lists every variant")
}

/// Encodes one section payload by walking `s`.
pub fn encode<S: ?Sized, E: Debug>(
    s: &mut S,
    walk: impl FnOnce(&mut Enc, &mut S) -> Result<(), E>,
) -> Vec<u8> {
    let mut e = Enc::new();
    walk(&mut e, s).expect("an encoding walk only writes");
    e.into_bytes()
}

/// Decodes the section payload `bytes` named `name` into `s` by walking
/// it. Bytes the walk leaves unread are corrupt.
pub fn decode<'a, S: ?Sized, E: From<CheckpointError>>(
    bytes: &'a [u8],
    name: &str,
    s: &mut S,
    walk: impl FnOnce(&mut Dec<'a>, &mut S) -> Result<(), E>,
) -> Result<(), E> {
    let mut d = Dec::new(bytes);
    walk(&mut d, s)?;
    if d.remaining() != 0 {
        return Err(CheckpointError::Corrupt(format!(
            "{name} section has {} trailing byte(s)",
            d.remaining()
        ))
        .into());
    }
    Ok(())
}

macro_rules! le_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            const MIN_BYTES: usize = size_of::<$t>();
            #[inline]
            fn put(&self, e: &mut Enc) {
                e.buf.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn take(d: &mut Dec<'_>, what: &str) -> Result<Self, CheckpointError> {
                let b = d.bytes(size_of::<$t>(), what)?;
                Ok(<$t>::from_le_bytes(b.try_into().expect("sized read")))
            }
        }
    )*};
}

le_field!(u8, u32, u64);

/// Stored as a `u64`.
impl Field for usize {
    const MIN_BYTES: usize = 8;
    #[inline]
    fn put(&self, e: &mut Enc) {
        (*self as u64).put(e);
    }
    #[inline]
    fn take(d: &mut Dec<'_>, what: &str) -> Result<Self, CheckpointError> {
        usize::try_from(u64::take(d, what)?).map_err(|_| malformed(what))
    }
}

/// Stored as its exact bit pattern.
impl Field for f64 {
    const MIN_BYTES: usize = 8;
    #[inline]
    fn put(&self, e: &mut Enc) {
        self.to_bits().put(e);
    }
    #[inline]
    fn take(d: &mut Dec<'_>, what: &str) -> Result<Self, CheckpointError> {
        Ok(f64::from_bits(u64::take(d, what)?))
    }
}

/// One byte; any nonzero byte reads as `true`.
impl Field for bool {
    const MIN_BYTES: usize = 1;
    #[inline]
    fn put(&self, e: &mut Enc) {
        u8::from(*self).put(e);
    }
    #[inline]
    fn take(d: &mut Dec<'_>, what: &str) -> Result<Self, CheckpointError> {
        Ok(u8::take(d, what)? != 0)
    }
}

/// Length-prefixed UTF-8.
impl Field for String {
    const MIN_BYTES: usize = 8;
    fn put(&self, e: &mut Enc) {
        self.len().put(e);
        e.buf.extend_from_slice(self.as_bytes());
    }
    fn take(d: &mut Dec<'_>, what: &str) -> Result<Self, CheckpointError> {
        let len = d.len(1, what)?;
        let bytes = d.bytes(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed(what))
    }
}

fn put_slice<T: Field>(e: &mut Enc, s: &[T]) {
    s.len().put(e);
    for x in s {
        x.put(e);
    }
}

/// Length-prefixed elements.
impl<T: Field> Field for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn put(&self, e: &mut Enc) {
        put_slice(e, self);
    }
    fn take(d: &mut Dec<'_>, what: &str) -> Result<Self, CheckpointError> {
        let len = d.len(T::MIN_BYTES, what)?;
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(T::take(d, what)?);
        }
        Ok(v)
    }
}

/// Dimensions, structure and bit-exact values. Decoding re-validates the
/// structural invariants, so a corrupted payload cannot smuggle an
/// inconsistent matrix past the checksum (e.g. a valid checksum over
/// garbage written by a buggy tool).
impl Field for Csr {
    const MIN_BYTES: usize = 40;
    fn put(&self, e: &mut Enc) {
        self.n_rows().put(e);
        self.n_cols().put(e);
        self.row_ptr.put(e);
        self.col_idx.put(e);
        self.vals.put(e);
    }
    fn take(d: &mut Dec<'_>, _what: &str) -> Result<Self, CheckpointError> {
        let n_rows: usize = d.take("csr.n_rows")?;
        let n_cols: usize = d.take("csr.n_cols")?;
        let row_ptr: Vec<usize> = d.take("csr.row_ptr")?;
        let col_idx: Vec<Idx> = d.take("csr.col_idx")?;
        let vals: Vec<f64> = d.take("csr.vals")?;
        // Pre-validate what `Csr::new` assumes rather than checks: offsets
        // must be globally monotone and span `col_idx` before it may slice.
        let spans = row_ptr.first() == Some(&0)
            && *row_ptr.last().unwrap_or(&0) == col_idx.len()
            && row_ptr.windows(2).all(|w| w[0] <= w[1])
            && n_rows.checked_add(1) == Some(row_ptr.len());
        if !spans {
            return Err(CheckpointError::Corrupt(
                "decoded CSR invalid: malformed row offsets".into(),
            ));
        }
        Csr::new(n_rows, n_cols, row_ptr, col_idx, vals)
            .map_err(|e| CheckpointError::Corrupt(format!("decoded CSR invalid: {e}")))
    }
}

/// Dimensions, structure and bit-exact values, re-validated through
/// `Csc::new` (offsets, bounds and the sorted-rows invariant).
impl Field for Csc {
    const MIN_BYTES: usize = 40;
    fn put(&self, e: &mut Enc) {
        self.n_rows().put(e);
        self.n_cols().put(e);
        self.col_ptr.put(e);
        self.row_idx.put(e);
        self.vals.put(e);
    }
    fn take(d: &mut Dec<'_>, _what: &str) -> Result<Self, CheckpointError> {
        let n_rows: usize = d.take("csc.n_rows")?;
        let n_cols: usize = d.take("csc.n_cols")?;
        let col_ptr: Vec<usize> = d.take("csc.col_ptr")?;
        let row_idx: Vec<Idx> = d.take("csc.row_idx")?;
        let vals: Vec<f64> = d.take("csc.vals")?;
        Csc::new(n_rows, n_cols, col_ptr, row_idx, vals)
            .map_err(|e| CheckpointError::Corrupt(format!("decoded CSC invalid: {e}")))
    }
}

/// The forward map, re-validated as a bijection.
impl Field for Permutation {
    const MIN_BYTES: usize = 8;
    fn put(&self, e: &mut Enc) {
        put_slice(e, self.as_slice());
    }
    fn take(d: &mut Dec<'_>, _what: &str) -> Result<Self, CheckpointError> {
        Permutation::from_forward(d.take("perm.forward")?)
            .map_err(|e| CheckpointError::Corrupt(format!("decoded permutation invalid: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut e = Enc::new();
        e.put(&7u8);
        e.put(&0xDEAD_BEEFu32);
        e.put(&u64::MAX);
        e.put(&12345usize);
        e.put(&-0.0f64);
        e.put(&f64::NEG_INFINITY);
        e.put(&String::from("héllo"));
        e.put(&vec![1u32, 2, 3]);
        e.put(&vec![f64::NAN, 1.5]);
        let bytes = e.into_bytes();

        let mut d = Dec::new(&bytes);
        assert_eq!(d.take::<u8>("a").unwrap(), 7);
        assert_eq!(d.take::<u32>("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.take::<u64>("c").unwrap(), u64::MAX);
        assert_eq!(d.take::<usize>("d").unwrap(), 12345);
        let z: f64 = d.take("e").unwrap();
        assert!(z == 0.0 && z.is_sign_negative(), "-0.0 must survive");
        assert_eq!(d.take::<f64>("f").unwrap(), f64::NEG_INFINITY);
        assert_eq!(d.take::<String>("g").unwrap(), "héllo");
        assert_eq!(d.take::<Vec<u32>>("h").unwrap(), vec![1, 2, 3]);
        let v: Vec<f64> = d.take("i").unwrap();
        assert!(v[0].is_nan() && v[1] == 1.5);
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut e = Enc::new();
        e.put(&vec![1usize, 2, 3]);
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Dec::new(&bytes[..cut]);
            assert!(d.take::<Vec<usize>>("v").is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn absurd_length_prefix_is_rejected_up_front() {
        // A length prefix claiming 2^60 elements must not attempt a huge
        // allocation; the remaining-bytes bound catches it first.
        let mut e = Enc::new();
        e.put(&(1u64 << 60));
        let bytes = e.into_bytes();
        assert!(Dec::new(&bytes).take::<Vec<f64>>("v").is_err());
        assert!(Dec::new(&bytes).take::<String>("s").is_err());
    }

    #[test]
    fn csr_and_perm_round_trip_and_validate() {
        let a = Csr::new(
            2,
            2,
            vec![0, 2, 3],
            vec![0, 1, 1],
            vec![1.0, -0.0, f64::MIN_POSITIVE],
        )
        .unwrap();
        let mut e = Enc::new();
        e.put(&a);
        let p = Permutation::from_forward(vec![1, 0]).unwrap();
        e.put(&p);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let a2: Csr = d.take("a").unwrap();
        assert_eq!(a2.row_ptr, a.row_ptr);
        assert_eq!(a2.col_idx, a.col_idx);
        assert_eq!(a2.vals[0].to_bits(), 1.0f64.to_bits());
        assert_eq!(a2.vals[1].to_bits(), (-0.0f64).to_bits());
        let p2: Permutation = d.take("p").unwrap();
        assert_eq!(p2.as_slice(), p.as_slice());

        // A structurally invalid CSR is rejected even though it decodes.
        let mut e = Enc::new();
        e.put(&2usize);
        e.put(&2usize);
        e.put(&vec![0usize, 5, 1]); // non-monotone row_ptr
        e.put(&vec![0u32]);
        e.put(&vec![1.0f64]);
        let bytes = e.into_bytes();
        assert!(Dec::new(&bytes).take::<Csr>("a").is_err());
    }

    #[derive(Debug, Clone, Default, PartialEq)]
    enum Shape {
        #[default]
        Dot,
        Line(f64),
    }

    const SHAPES: [(u8, Shape); 2] = [(0, Shape::Dot), (7, Shape::Line(0.0))];

    #[derive(Debug, Default, PartialEq)]
    struct Drawing {
        shape: Shape,
        points: Vec<u32>,
    }

    /// The one description both directions walk.
    fn drawing<C: Codec>(c: &mut C, s: &mut Drawing) -> Result<(), CheckpointError> {
        c.tag(&mut s.shape, &SHAPES, "shape")?;
        if let Shape::Line(len) = &mut s.shape {
            c.field(len, "len")?;
        }
        c.field(&mut s.points, "points")
    }

    #[test]
    fn one_walk_encodes_and_decodes_a_section() {
        let mut s = Drawing {
            shape: Shape::Line(2.5),
            points: vec![4, 9],
        };
        let bytes = encode(&mut s, drawing);
        assert_eq!(bytes[0], 7, "the table's tag, not the variant index");
        let mut back = Drawing::default();
        decode(&bytes, "DRAWING", &mut back, drawing).unwrap();
        assert_eq!(back, s);

        let mut padded = bytes.clone();
        padded.push(0);
        let e = decode(&padded, "DRAWING", &mut Drawing::default(), drawing).unwrap_err();
        assert!(
            e.to_string()
                .contains("DRAWING section has 1 trailing byte"),
            "{e}"
        );
        let mut unknown = bytes;
        unknown[0] = 3;
        let e = decode(&unknown, "DRAWING", &mut Drawing::default(), drawing).unwrap_err();
        assert!(e.to_string().contains("shape: unknown tag 3"), "{e}");
    }
}
