//! MPI datatypes: the Java basic types plus the derived constructors the
//! buffering layer exists to support (contiguous, vector, indexed).
//!
//! A datatype describes one *element*; communication calls take an element
//! `count`. Derived types are described by their **typemap**: the list of
//! `(byte offset, byte length)` contiguous segments one element occupies
//! in the user buffer, plus the element *extent* (the span from the start
//! of one element to the start of the next). Packing walks the typemap —
//! this is exactly what a native MPI implementation's pack engine does.

use crate::error::{MpiError, MpiResult};

/// The basic (primitive) Java datatypes MVAPICH2-J communicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BasicType {
    /// `byte` — 1 byte.
    Byte,
    /// `boolean` — 1 byte in the JVM's array representation.
    Boolean,
    /// `char` — UTF-16 code unit, 2 bytes.
    Char,
    /// `short` — 2 bytes.
    Short,
    /// `int` — 4 bytes.
    Int,
    /// `long` — 8 bytes.
    Long,
    /// `float` — 4 bytes.
    Float,
    /// `double` — 8 bytes.
    Double,
}

impl BasicType {
    /// Size of one element in bytes.
    #[inline]
    pub const fn size(self) -> usize {
        match self {
            BasicType::Byte | BasicType::Boolean => 1,
            BasicType::Char | BasicType::Short => 2,
            BasicType::Int | BasicType::Float => 4,
            BasicType::Long | BasicType::Double => 8,
        }
    }

    /// Display name used in error messages.
    pub const fn name(self) -> &'static str {
        match self {
            BasicType::Byte => "BYTE",
            BasicType::Boolean => "BOOLEAN",
            BasicType::Char => "CHAR",
            BasicType::Short => "SHORT",
            BasicType::Int => "INT",
            BasicType::Long => "LONG",
            BasicType::Float => "FLOAT",
            BasicType::Double => "DOUBLE",
        }
    }

    /// Whether this is an integer type (bitwise/logical reductions are
    /// only defined on these).
    pub const fn is_integer(self) -> bool {
        matches!(
            self,
            BasicType::Byte
                | BasicType::Boolean
                | BasicType::Char
                | BasicType::Short
                | BasicType::Int
                | BasicType::Long
        )
    }
}

/// An MPI datatype: a basic type or a derived layout over one.
#[derive(Debug, Clone, PartialEq)]
pub enum Datatype {
    /// A single primitive element.
    Basic(BasicType),
    /// `count` consecutive elements of `base` (MPI_Type_contiguous).
    Contiguous { count: usize, base: Box<Datatype> },
    /// `count` blocks of `blocklength` base elements, block `k` starting
    /// at base-element offset `k * stride` (MPI_Type_vector).
    Vector {
        count: usize,
        blocklength: usize,
        stride: usize,
        base: Box<Datatype>,
    },
    /// Explicit blocks: `(displacement, blocklength)` in base elements
    /// (MPI_Type_indexed).
    Indexed {
        blocks: Vec<(usize, usize)>,
        base: Box<Datatype>,
    },
}

/// Shorthands matching the constants the bindings export.
pub const BYTE: Datatype = Datatype::Basic(BasicType::Byte);
pub const BOOLEAN: Datatype = Datatype::Basic(BasicType::Boolean);
pub const CHAR: Datatype = Datatype::Basic(BasicType::Char);
pub const SHORT: Datatype = Datatype::Basic(BasicType::Short);
pub const INT: Datatype = Datatype::Basic(BasicType::Int);
pub const LONG: Datatype = Datatype::Basic(BasicType::Long);
pub const FLOAT: Datatype = Datatype::Basic(BasicType::Float);
pub const DOUBLE: Datatype = Datatype::Basic(BasicType::Double);

impl Datatype {
    /// MPI_Type_contiguous.
    pub fn contiguous(count: usize, base: Datatype) -> Datatype {
        Datatype::Contiguous {
            count,
            base: Box::new(base),
        }
    }

    /// MPI_Type_vector. `stride` is in base elements, like the standard.
    pub fn vector(
        count: usize,
        blocklength: usize,
        stride: usize,
        base: Datatype,
    ) -> MpiResult<Datatype> {
        if count > 0 && stride < blocklength && count > 1 {
            // Overlapping blocks are legal to *send* in MPI but make
            // receive semantics undefined; we reject them outright.
            return Err(MpiError::InvalidCount {
                count: stride as i32,
            });
        }
        Ok(Datatype::Vector {
            count,
            blocklength,
            stride,
            base: Box::new(base),
        })
    }

    /// MPI_Type_indexed with `(displacement, blocklength)` pairs in base
    /// elements. Displacements must be non-decreasing and non-overlapping.
    pub fn indexed(blocks: Vec<(usize, usize)>, base: Datatype) -> MpiResult<Datatype> {
        let mut prev_end = 0usize;
        for &(disp, len) in &blocks {
            if disp < prev_end {
                return Err(MpiError::InvalidGroup("indexed blocks overlap or decrease"));
            }
            prev_end = disp + len;
        }
        Ok(Datatype::Indexed {
            blocks,
            base: Box::new(base),
        })
    }

    /// True data bytes in one element (sum of the typemap segments).
    pub fn size(&self) -> usize {
        match self {
            Datatype::Basic(b) => b.size(),
            Datatype::Contiguous { count, base } => count * base.size(),
            Datatype::Vector {
                count,
                blocklength,
                base,
                ..
            } => count * blocklength * base.size(),
            Datatype::Indexed { blocks, base } => {
                blocks.iter().map(|&(_, l)| l).sum::<usize>() * base.size()
            }
        }
    }

    /// Span in the user buffer from the start of one element to the start
    /// of the next (MPI extent, bytes).
    pub fn extent(&self) -> usize {
        match self {
            Datatype::Basic(b) => b.size(),
            Datatype::Contiguous { count, base } => count * base.extent(),
            Datatype::Vector {
                count,
                blocklength,
                stride,
                base,
            } => {
                if *count == 0 {
                    0
                } else {
                    ((count - 1) * stride + blocklength) * base.extent()
                }
            }
            Datatype::Indexed { blocks, base } => blocks
                .iter()
                .map(|&(d, l)| (d + l) * base.extent())
                .max()
                .unwrap_or(0),
        }
    }

    /// Whether the typemap of one element is a single gap-free segment
    /// covering its extent (pack is then the identity).
    pub fn is_contiguous(&self) -> bool {
        self.size() == self.extent()
    }

    /// The underlying basic type (reductions require one).
    pub fn base_type(&self) -> BasicType {
        match self {
            Datatype::Basic(b) => *b,
            Datatype::Contiguous { base, .. }
            | Datatype::Vector { base, .. }
            | Datatype::Indexed { base, .. } => base.base_type(),
        }
    }

    /// Display name used in error messages.
    pub fn name(&self) -> &'static str {
        match self {
            Datatype::Basic(b) => b.name(),
            Datatype::Contiguous { .. } => "CONTIGUOUS",
            Datatype::Vector { .. } => "VECTOR",
            Datatype::Indexed { .. } => "INDEXED",
        }
    }

    /// The typemap of one element: coalesced `(offset, len)` byte
    /// segments, relative to the element start.
    pub fn segments(&self) -> Vec<(usize, usize)> {
        let mut segs = Vec::new();
        self.collect_segments(0, &mut segs);
        // Coalesce adjacent segments (e.g. contiguous-of-basic).
        let mut out: Vec<(usize, usize)> = Vec::with_capacity(segs.len());
        for (off, len) in segs {
            if let Some(last) = out.last_mut() {
                if last.0 + last.1 == off {
                    last.1 += len;
                    continue;
                }
            }
            out.push((off, len));
        }
        out
    }

    fn collect_segments(&self, at: usize, out: &mut Vec<(usize, usize)>) {
        match self {
            Datatype::Basic(b) => out.push((at, b.size())),
            Datatype::Contiguous { count, base } => {
                let ext = base.extent();
                for k in 0..*count {
                    base.collect_segments(at + k * ext, out);
                }
            }
            Datatype::Vector {
                count,
                blocklength,
                stride,
                base,
            } => {
                let ext = base.extent();
                for k in 0..*count {
                    let block_at = at + k * stride * ext;
                    for j in 0..*blocklength {
                        base.collect_segments(block_at + j * ext, out);
                    }
                }
            }
            Datatype::Indexed { blocks, base } => {
                let ext = base.extent();
                for &(disp, len) in blocks {
                    let block_at = at + disp * ext;
                    for j in 0..len {
                        base.collect_segments(block_at + j * ext, out);
                    }
                }
            }
        }
    }

    /// Bytes of user buffer needed to hold `count` elements.
    pub fn span(&self, count: usize) -> usize {
        if count == 0 {
            0
        } else {
            (count - 1) * self.extent() + self.trailing_span()
        }
    }

    /// Span of a single element up to the end of its last segment (an
    /// element's data may end before its extent).
    fn trailing_span(&self) -> usize {
        if self.is_contiguous() {
            // One gap-free segment `(0, size)`, or none when empty.
            return self.size();
        }
        self.segments().last().map(|&(o, l)| o + l).unwrap_or(0)
    }

    /// Byte range of the block of `count` elements that starts
    /// `elem_offset` elements into a buffer of `len` bytes, which must
    /// hold all of it.
    pub(crate) fn block(
        &self,
        elem_offset: usize,
        count: usize,
        len: usize,
    ) -> MpiResult<std::ops::Range<usize>> {
        let start = elem_offset * self.extent();
        let end = start + self.span(count);
        if len < end {
            return Err(MpiError::BufferTooSmall {
                needed: end,
                available: len,
            });
        }
        Ok(start..end)
    }

    /// Pack `count` elements from `src` into a dense byte vector.
    pub fn pack(&self, src: &[u8], count: usize) -> MpiResult<Vec<u8>> {
        let needed = self.span(count);
        if src.len() < needed {
            return Err(MpiError::BufferTooSmall {
                needed,
                available: src.len(),
            });
        }
        if self.is_contiguous() {
            // Elements sit back to back without gaps: the packed form is
            // the buffer prefix itself, one slice copy.
            return Ok(src[..needed].to_vec());
        }
        let mut out = Vec::with_capacity(self.size() * count);
        let segs = self.segments();
        let ext = self.extent();
        for i in 0..count {
            let base = i * ext;
            for &(off, len) in &segs {
                out.extend_from_slice(&src[base + off..base + off + len]);
            }
        }
        Ok(out)
    }

    /// Unpack `count` elements from dense bytes `data` into `dst` laid out
    /// with this datatype. `data` must hold exactly `size() * count` bytes
    /// or fewer (a shorter message fills a prefix, like MPI receives).
    pub fn unpack(&self, data: &[u8], count: usize, dst: &mut [u8]) -> MpiResult<usize> {
        let elem_size = self.size();
        if elem_size == 0 {
            return Ok(0);
        }
        let full = data.len() / elem_size;
        if full > count {
            return Err(MpiError::Truncated {
                incoming: data.len(),
                capacity: elem_size * count,
            });
        }
        let needed = self.span(full);
        if dst.len() < needed {
            return Err(MpiError::BufferTooSmall {
                needed,
                available: dst.len(),
            });
        }
        if self.is_contiguous() {
            // Whole elements first, then any ragged tail as a prefix of
            // the next element — the same bytes, in the same order and
            // with the same error, as the segment walk below.
            dst[..needed].copy_from_slice(&data[..needed]);
            if dst.len() < data.len() {
                return Err(MpiError::BufferTooSmall {
                    needed: data.len(),
                    available: dst.len(),
                });
            }
            dst[needed..data.len()].copy_from_slice(&data[needed..]);
            return Ok(data.len());
        }
        let segs = self.segments();
        let ext = self.extent();
        let mut pos = 0usize;
        for i in 0..full {
            let base = i * ext;
            for &(off, len) in &segs {
                dst[base + off..base + off + len].copy_from_slice(&data[pos..pos + len]);
                pos += len;
            }
        }
        // Trailing partial element, if the sender sent a ragged tail
        // (possible with basic types only in practice).
        let rem = data.len() - pos;
        if rem > 0 {
            let base = full * ext;
            let mut left = rem;
            for &(off, len) in &segs {
                let take = left.min(len);
                if dst.len() < base + off + take {
                    return Err(MpiError::BufferTooSmall {
                        needed: base + off + take,
                        available: dst.len(),
                    });
                }
                dst[base + off..base + off + take].copy_from_slice(&data[pos..pos + take]);
                pos += take;
                left -= take;
                if left == 0 {
                    break;
                }
            }
        }
        Ok(data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_sizes() {
        assert_eq!(BYTE.size(), 1);
        assert_eq!(CHAR.size(), 2);
        assert_eq!(SHORT.size(), 2);
        assert_eq!(INT.size(), 4);
        assert_eq!(LONG.size(), 8);
        assert_eq!(FLOAT.size(), 4);
        assert_eq!(DOUBLE.size(), 8);
        assert!(INT.is_contiguous());
    }

    #[test]
    fn contiguous_type() {
        let t = Datatype::contiguous(5, INT);
        assert_eq!(t.size(), 20);
        assert_eq!(t.extent(), 20);
        assert!(t.is_contiguous());
        assert_eq!(t.segments(), vec![(0, 20)]);
    }

    #[test]
    fn vector_type_layout() {
        // 3 blocks of 2 ints, stride 4 ints.
        let t = Datatype::vector(3, 2, 4, INT).unwrap();
        assert_eq!(t.size(), 24);
        assert_eq!(t.extent(), (2 * 4 + 2) * 4);
        assert!(!t.is_contiguous());
        assert_eq!(t.segments(), vec![(0, 8), (16, 8), (32, 8)]);
    }

    #[test]
    fn vector_pack_unpack_roundtrip() {
        let t = Datatype::vector(2, 2, 3, INT).unwrap();
        // Element layout (ints): [b0 b0 . b1 b1] extent = 5 ints? stride 3,
        // blocklength 2 => extent = ((2-1)*3 + 2)*4 = 20 bytes = 5 ints.
        let src: Vec<u8> = (0..40u8).collect(); // 2 elements * 5 ints
        let packed = t.pack(&src, 2).unwrap();
        assert_eq!(packed.len(), 2 * t.size());
        let mut dst = vec![0u8; 40];
        let n = t.unpack(&packed, 2, &mut dst).unwrap();
        assert_eq!(n, packed.len());
        // Every byte covered by the typemap must roundtrip.
        let ext = t.extent();
        for i in 0..2 {
            for &(off, len) in &t.segments() {
                let a = &src[i * ext + off..i * ext + off + len];
                let b = &dst[i * ext + off..i * ext + off + len];
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn indexed_type() {
        let t = Datatype::indexed(vec![(0, 1), (3, 2)], DOUBLE).unwrap();
        assert_eq!(t.size(), 24);
        assert_eq!(t.extent(), 40);
        assert_eq!(t.segments(), vec![(0, 8), (24, 16)]);
    }

    #[test]
    fn indexed_rejects_overlap() {
        assert!(Datatype::indexed(vec![(0, 2), (1, 1)], INT).is_err());
    }

    #[test]
    fn vector_rejects_overlapping_stride() {
        assert!(Datatype::vector(3, 4, 2, INT).is_err());
    }

    #[test]
    fn pack_rejects_short_buffer() {
        let t = Datatype::contiguous(4, INT);
        let src = vec![0u8; 15];
        assert!(matches!(
            t.pack(&src, 1),
            Err(MpiError::BufferTooSmall { .. })
        ));
    }

    #[test]
    fn unpack_rejects_oversized_message() {
        let data = vec![0u8; 8];
        let mut dst = vec![0u8; 4];
        assert!(matches!(
            INT.unpack(&data, 1, &mut dst),
            Err(MpiError::Truncated { .. })
        ));
    }

    #[test]
    fn unpack_partial_fill() {
        // 2 ints arrive into a 4-int receive: prefix fill.
        let data: Vec<u8> = (0..8).collect();
        let mut dst = vec![0xFFu8; 16];
        let n = INT.unpack(&data, 4, &mut dst).unwrap();
        assert_eq!(n, 8);
        assert_eq!(&dst[..8], &data[..]);
        assert_eq!(&dst[8..], &[0xFF; 8]);
    }

    #[test]
    fn base_type_of_nested() {
        let t = Datatype::contiguous(3, Datatype::vector(2, 1, 2, DOUBLE).unwrap());
        assert_eq!(t.base_type(), BasicType::Double);
    }

    #[test]
    fn span_accounts_for_ragged_tail() {
        let t = Datatype::vector(2, 1, 3, INT).unwrap();
        // segments: (0,4), (12,4); extent 16; trailing span 16 => span(2)=32
        assert_eq!(t.span(2), 32);
        let u = Datatype::indexed(vec![(0, 1)], INT).unwrap();
        // extent 4 == trailing span; span(3) = 12
        assert_eq!(u.span(3), 12);
    }

    /// Knuth LCG: every run replays the same cases.
    struct Lcg(u64);

    impl Lcg {
        fn new(seed: u64) -> Self {
            Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
        }
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A random layout of every constructor, nested up to `depth`. About
    /// half the derived draws are gap-free, so both pack paths get cases.
    fn gen_type(rng: &mut Lcg, depth: usize) -> Datatype {
        const BASICS: [Datatype; 7] = [BYTE, CHAR, SHORT, INT, LONG, FLOAT, DOUBLE];
        if depth == 0 || rng.below(4) == 0 {
            return BASICS[rng.below(BASICS.len())].clone();
        }
        let base = gen_type(rng, depth - 1);
        let gapless = rng.below(2) == 0;
        match rng.below(3) {
            0 => Datatype::contiguous(rng.below(4), base),
            1 => {
                let count = 1 + rng.below(3);
                let blocklength = 1 + rng.below(3);
                let stride = if gapless {
                    blocklength
                } else {
                    blocklength + 1 + rng.below(3)
                };
                Datatype::vector(count, blocklength, stride, base).unwrap()
            }
            _ => {
                let mut disp = 0;
                let mut blocks = Vec::new();
                for _ in 0..1 + rng.below(3) {
                    if !gapless {
                        disp += rng.below(3);
                    }
                    let len = 1 + rng.below(3);
                    blocks.push((disp, len));
                    disp += len;
                }
                Datatype::indexed(blocks, base).unwrap()
            }
        }
    }

    /// The general segment walk, kept verbatim as the reference the
    /// contiguous fast paths must reproduce bit for bit.
    fn walk_span(dt: &Datatype, count: usize) -> usize {
        let trailing = dt.segments().last().map(|&(o, l)| o + l).unwrap_or(0);
        if count == 0 {
            0
        } else {
            (count - 1) * dt.extent() + trailing
        }
    }

    fn walk_pack(dt: &Datatype, src: &[u8], count: usize) -> MpiResult<Vec<u8>> {
        let needed = walk_span(dt, count);
        if src.len() < needed {
            return Err(MpiError::BufferTooSmall {
                needed,
                available: src.len(),
            });
        }
        let mut out = Vec::new();
        let ext = dt.extent();
        for i in 0..count {
            for &(off, len) in &dt.segments() {
                out.extend_from_slice(&src[i * ext + off..i * ext + off + len]);
            }
        }
        Ok(out)
    }

    fn walk_unpack(dt: &Datatype, data: &[u8], count: usize, dst: &mut [u8]) -> MpiResult<usize> {
        let elem_size = dt.size();
        if elem_size == 0 {
            return Ok(0);
        }
        let full = data.len() / elem_size;
        if full > count {
            return Err(MpiError::Truncated {
                incoming: data.len(),
                capacity: elem_size * count,
            });
        }
        let needed = walk_span(dt, full);
        if dst.len() < needed {
            return Err(MpiError::BufferTooSmall {
                needed,
                available: dst.len(),
            });
        }
        let segs = dt.segments();
        let ext = dt.extent();
        let mut pos = 0;
        for i in 0..full {
            for &(off, len) in &segs {
                dst[i * ext + off..i * ext + off + len].copy_from_slice(&data[pos..pos + len]);
                pos += len;
            }
        }
        let mut left = data.len() - pos;
        for &(off, len) in &segs {
            if left == 0 {
                break;
            }
            let at = full * ext + off;
            let take = left.min(len);
            if dst.len() < at + take {
                return Err(MpiError::BufferTooSmall {
                    needed: at + take,
                    available: dst.len(),
                });
            }
            dst[at..at + take].copy_from_slice(&data[pos..pos + take]);
            pos += take;
            left -= take;
        }
        Ok(data.len())
    }

    fn noise(rng: &mut Lcg, n: usize) -> Vec<u8> {
        (0..n).map(|_| rng.next() as u8).collect()
    }

    #[test]
    fn pack_and_unpack_match_the_segment_walk() {
        let mut rng = Lcg::new(12);
        let mut contiguous = 0;
        for _ in 0..400 {
            let dt = gen_type(&mut rng, 3);
            contiguous += dt.is_contiguous() as usize;
            assert_eq!(dt.span(5), walk_span(&dt, 5), "{dt:?}");
            for count in 0..6 {
                let span = walk_span(&dt, count);
                // Exact, short by one, short by a lot, and roomy sources.
                for src_len in [span, span.saturating_sub(1), span / 2, span + 7] {
                    let src = noise(&mut rng, src_len);
                    assert_eq!(
                        dt.pack(&src, count),
                        walk_pack(&dt, &src, count),
                        "{dt:?} x{count} from {src_len} bytes"
                    );
                }
                // Short messages, ragged tails around every whole-element
                // boundary up to one element past the capacity
                // (truncation), into exact, short and roomy destinations.
                let size = dt.size();
                let mut lens: Vec<usize> = (0..=size.min(17)).collect();
                for k in 1..=count + 1 {
                    let at = k * size;
                    lens.extend([at.saturating_sub(1), at, at + 1, at + size / 2]);
                }
                for data_len in lens {
                    let data = noise(&mut rng, data_len);
                    let fill = walk_span(&dt, count + 1);
                    for dst_len in [span, span.saturating_sub(1), span / 2, fill + 3] {
                        let init = noise(&mut rng, dst_len);
                        let (mut got, mut want) = (init.clone(), init);
                        assert_eq!(
                            dt.unpack(&data, count, &mut got),
                            walk_unpack(&dt, &data, count, &mut want),
                            "{dt:?} x{count}: {data_len} bytes into {dst_len}"
                        );
                        assert_eq!(got, want, "{dt:?} x{count}: {data_len} into {dst_len}");
                    }
                }
            }
        }
        // Both paths were exercised in bulk.
        assert!(
            contiguous > 100 && contiguous < 300,
            "{contiguous} gap-free of 400"
        );
    }

    #[test]
    fn short_buffer_errors_carry_the_same_figures() {
        let t = Datatype::contiguous(3, INT);
        assert_eq!(
            t.pack(&[0; 20], 2),
            Err(MpiError::BufferTooSmall {
                needed: 24,
                available: 20
            })
        );
        let mut dst = [0u8; 14];
        // 3 whole INTs plus a 2-byte ragged tail into 14 bytes: the
        // whole elements fit, the tail does not.
        assert_eq!(
            INT.unpack(&[7; 14], 4, &mut dst[..13]),
            Err(MpiError::BufferTooSmall {
                needed: 14,
                available: 13
            })
        );
        assert_eq!(&dst[..12], &[7; 12]);
        assert_eq!(
            t.unpack(&[0; 36], 2, &mut dst),
            Err(MpiError::Truncated {
                incoming: 36,
                capacity: 24
            })
        );
    }

    #[test]
    fn nested_contiguous_of_vector_packs() {
        let v = Datatype::vector(2, 1, 2, SHORT).unwrap(); // segs (0,2),(4,2), ext 6? ((2-1)*2+1)*2=6
        let t = Datatype::contiguous(2, v);
        assert_eq!(t.size(), 8);
        let src: Vec<u8> = (0..12u8).chain(0..12u8).collect();
        let packed = t.pack(&src, 1).unwrap();
        assert_eq!(packed.len(), 8);
        assert_eq!(packed, vec![0, 1, 4, 5, 6, 7, 10, 11]);
    }
}
