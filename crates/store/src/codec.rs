//! The field codec every durable and wire byte is derived through.
//!
//! A value travels as its fields in declaration order, each encoded by
//! its type, all little-endian: a `u64` in 8 bytes, a `u16` in 2, an
//! `f64` as its exact bit pattern in 8, a `bool` as one byte `0` / `1`,
//! a `String` or a `Vec<u8>` as a `u32` length then its bytes, an
//! `Option` as a byte `0` / `1` then the value, any other `Vec` as a
//! `u64` count then the items, a map as a `u64` count then its
//! `(key, value)` pairs in ascending key order, a pair as its two values,
//! a `Result` as a byte `1` (`Ok`) / `2` (`Err`) then the value, and an
//! enum as its variant's one-byte tag then that variant's fields.
//! [`wire_enum!`](crate::wire_enum) and [`wire_struct!`](crate::wire_struct)
//! declare a type once and derive both directions from the declaration,
//! so a field cannot be written in one order and read in another.
//!
//! A WAL [`Record`](crate::Record), a snapshot's
//! [`StoreState`](crate::StoreState), a cached answer and a wire message
//! are all encoded by these rules: one type has one encoding wherever it
//! is written.

use bf_obs::{Stage, TraceId, TraceSpan, TraceTree};
use std::collections::BTreeMap;

#[doc(hidden)]
pub use rand::{rngs::StdRng, Rng};

/// Appends a value's encoding to a payload.
pub trait Put {
    /// Appends `self`.
    fn put(&self, out: &mut Vec<u8>);

    /// A list: the count, then each item.
    fn put_list(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        (items.len() as u64).put(out);
        for item in items {
            item.put(out);
        }
    }
}

/// Reads a value back; `None` when the bytes are not what [`Put`] wrote.
pub trait Get: Sized {
    /// Reads one value off the cursor.
    fn get(r: &mut Reader<'_>) -> Option<Self>;

    /// Reads [`Put::put_list`] output. The count is bounded by the bytes
    /// left, and the `Vec` reserves only a small prefix, growing with
    /// items that actually decode: a 40-byte frame never commands a
    /// 100 MB allocation.
    fn get_list(r: &mut Reader<'_>) -> Option<Vec<Self>> {
        let n = r.count()?;
        let mut items = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            items.push(Self::get(r)?);
        }
        Some(items)
    }
}

/// One value as a payload of its own.
pub fn encode(value: &impl Put) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    value.put(&mut out);
    out
}

/// One value from a whole payload — trailing bytes are malformed, not
/// ignored.
pub fn decode<T: Get>(payload: &[u8]) -> Option<T> {
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let value = T::get(&mut r)?;
    (r.pos == payload.len()).then_some(value)
}

/// The tag `variant` is declared under in a derived enum's `TAGS`; in a
/// `const`, a name the table lacks fails the build.
pub const fn tag(tags: &[(&str, u8)], variant: &str) -> u8 {
    let mut i = 0;
    while i < tags.len() {
        let (name, tag) = (tags[i].0.as_bytes(), tags[i].1);
        let mut j = 0;
        while j < name.len() && j < variant.len() && name[j] == variant.as_bytes()[j] {
            j += 1;
        }
        if j == name.len() && j == variant.len() {
            return tag;
        }
        i += 1;
    }
    panic!("no variant of that name in the table");
}

/// Cursor over an encoded payload. Every read is bounds-checked; `None`
/// means the bytes are not what the writer produced.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Takes the next `len` bytes as they are — `None`, and nothing
    /// consumed, when fewer remain, so a decoder that sizes a `Vec` from
    /// the slice it got can never allocate more than the bytes present.
    fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let bytes = self.buf.get(self.pos..self.pos.checked_add(len)?)?;
        self.pos += len;
        Some(bytes)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    /// A list or map count. Every encodable item is at least one byte,
    /// so a count beyond the bytes left is malformed at once.
    fn count(&mut self) -> Option<usize> {
        let n = usize::try_from(u64::get(self)?).ok()?;
        (n <= self.buf.len() - self.pos).then_some(n)
    }

    /// A `u32` length, then that many bytes.
    fn prefixed(&mut self) -> Option<&'a [u8]> {
        let len = u32::from_le_bytes(self.array()?);
        self.take(len as usize)
    }
}

/// A `u32` length, then the bytes: a `String`'s and a `Vec<u8>`'s layout.
fn put_prefixed(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// A flat list of 8-byte words: the room for all of them made once and
/// filled as one slice.
fn put_words<T>(out: &mut Vec<u8>, items: &[T], bits: impl Fn(&T) -> u64) {
    (items.len() as u64).put(out);
    let start = out.len();
    out.resize(start + 8 * items.len(), 0);
    for (bytes, item) in out[start..].chunks_exact_mut(8).zip(items) {
        bytes.copy_from_slice(&bits(item).to_le_bytes());
    }
}

/// Reads [`put_words`] output. The words are taken off the payload as
/// one slice before the `Vec` is sized from it: a count the bytes
/// present cannot back is malformed, never an allocation.
fn get_words<T>(r: &mut Reader<'_>, from: impl Fn(u64) -> T) -> Option<Vec<T>> {
    let len = usize::try_from(u64::get(r)?).ok()?;
    let bytes = r.take(len.checked_mul(8)?)?;
    Some(
        bytes
            .as_chunks::<8>()
            .0
            .iter()
            .map(|word| from(u64::from_le_bytes(*word)))
            .collect(),
    )
}

impl Put for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn put_list(items: &[u64], out: &mut Vec<u8>) {
        put_words(out, items, |w| *w);
    }
}

impl Get for u64 {
    fn get(r: &mut Reader<'_>) -> Option<u64> {
        Some(u64::from_le_bytes(r.array()?))
    }

    fn get_list(r: &mut Reader<'_>) -> Option<Vec<u64>> {
        get_words(r, |w| w)
    }
}

/// A float travels as its exact bit pattern, so an engine answer and a
/// ledger total replay to the same bits.
impl Put for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }

    fn put_list(items: &[f64], out: &mut Vec<u8>) {
        put_words(out, items, |x| x.to_bits());
    }
}

impl Get for f64 {
    fn get(r: &mut Reader<'_>) -> Option<f64> {
        u64::get(r).map(f64::from_bits)
    }

    fn get_list(r: &mut Reader<'_>) -> Option<Vec<f64>> {
        get_words(r, f64::from_bits)
    }
}

impl Put for u16 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Get for u16 {
    fn get(r: &mut Reader<'_>) -> Option<u16> {
        Some(u16::from_le_bytes(r.array()?))
    }
}

/// A byte; a list of bytes is a `u32` length then the bytes, as a
/// `String` is.
impl Put for u8 {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn put_list(items: &[u8], out: &mut Vec<u8>) {
        put_prefixed(out, items);
    }
}

impl Get for u8 {
    fn get(r: &mut Reader<'_>) -> Option<u8> {
        Some(r.take(1)?[0])
    }

    fn get_list(r: &mut Reader<'_>) -> Option<Vec<u8>> {
        r.prefixed().map(<[u8]>::to_vec)
    }
}

impl Put for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Get for bool {
    fn get(r: &mut Reader<'_>) -> Option<bool> {
        match u8::get(r)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Put for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_prefixed(out, self.as_bytes());
    }
}

impl Get for String {
    fn get(r: &mut Reader<'_>) -> Option<String> {
        String::from_utf8(r.prefixed()?.to_vec()).ok()
    }
}

impl<T: Put> Put for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.put(out);
            }
        }
    }
}

impl<T: Get> Get for Option<T> {
    fn get(r: &mut Reader<'_>) -> Option<Option<T>> {
        match u8::get(r)? {
            0 => Some(None),
            1 => Some(Some(T::get(r)?)),
            _ => None,
        }
    }
}

impl<T: Put> Put for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        T::put_list(self, out);
    }
}

impl<T: Get> Get for Vec<T> {
    fn get(r: &mut Reader<'_>) -> Option<Vec<T>> {
        T::get_list(r)
    }
}

impl<T: Put, E: Put> Put for Result<T, E> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Ok(value) => {
                out.push(1);
                value.put(out);
            }
            Err(error) => {
                out.push(2);
                error.put(out);
            }
        }
    }
}

impl<T: Get, E: Get> Get for Result<T, E> {
    fn get(r: &mut Reader<'_>) -> Option<Result<T, E>> {
        match u8::get(r)? {
            1 => Some(Ok(T::get(r)?)),
            2 => Some(Err(E::get(r)?)),
            _ => None,
        }
    }
}

impl<A: Put, B: Put> Put for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
}

impl<A: Get, B: Get> Get for (A, B) {
    fn get(r: &mut Reader<'_>) -> Option<(A, B)> {
        Some((A::get(r)?, B::get(r)?))
    }
}

impl<K: Put, V: Put> Put for BTreeMap<K, V> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u64).put(out);
        for (key, value) in self {
            key.put(out);
            value.put(out);
        }
    }
}

/// Keys must ascend strictly, as [`Put`] writes them: a map has one
/// encoding, so a decoded snapshot re-encodes to the bytes it came from.
impl<K: Get + Ord, V: Get> Get for BTreeMap<K, V> {
    fn get(r: &mut Reader<'_>) -> Option<BTreeMap<K, V>> {
        let mut map = BTreeMap::new();
        for _ in 0..r.count()? {
            let key = K::get(r)?;
            if map.last_key_value().is_some_and(|(last, _)| *last >= key) {
                return None;
            }
            map.insert(key, V::get(r)?);
        }
        Some(map)
    }
}

/// Declares an enum whose every variant carries a one-byte tag, and
/// derives [`Put`] and [`Get`] for it: the tag byte, then the variant's
/// fields in declaration order. A variant is a unit (`7 => Name`), one
/// named value (`7 => Name(value: Type)`) or named fields
/// (`7 => Name { a: A }`). A repeated tag is an unreachable decode arm,
/// which the lints refuse.
///
/// Derived beside it: `TAGS`, every variant's name and tag; with
/// `correlated` in front, `id()`, the leading `id` field every variant
/// has; and [`Arb`], a random generator over every variant.
///
/// The derived `put` / `get` are `#[inline]`, so a message's codec
/// compiles to one body, as hand-written arms did: without the hint a
/// scalar exchange decoded ≈ 10 % slower.
#[macro_export]
macro_rules! wire_enum {
    (@enum [$(#[$meta:meta])* $vis:vis enum $name:ident] {$(
        $(#[$vmeta:meta])*
        $tag:literal => $var:ident
        $({ $($(#[$fmeta:meta])* $field:ident : $fty:ty),* $(,)? })?
        $(($value:ident : $vty:ty))?
    ),* $(,)?}) => {
        $(#[$meta])*
        $vis enum $name {$(
            $(#[$vmeta])*
            $var $({ $($(#[$fmeta])* $field: $fty),* })? $(($vty))?,
        )*}

        impl $name {
            /// Every variant's name and tag, in declaration order.
            #[allow(dead_code)]
            pub(crate) const TAGS: &'static [(&'static str, u8)] = &[$((stringify!($var), $tag)),*];
        }

        impl $crate::codec::Put for $name {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                match self {$(
                    $name::$var $({ $($field),* })? $(($value))? => {
                        out.push($tag);
                        $($($crate::codec::Put::put($field, out);)*)?
                        $($crate::codec::Put::put($value, out);)?
                    }
                )*}
            }
        }

        impl $crate::codec::Get for $name {
            #[inline]
            fn get(r: &mut $crate::codec::Reader<'_>) -> Option<Self> {
                Some(match <u8 as $crate::codec::Get>::get(r)? {
                    $($tag => $name::$var
                        $({ $($field: $crate::codec::Get::get(r)?),* })?
                        $(({
                            let $value: $vty = $crate::codec::Get::get(r)?;
                            $value
                        }))?,)*
                    _ => return None,
                })
            }
        }

        impl $crate::codec::Arb for $name {
            fn arb(rng: &mut $crate::codec::StdRng) -> Self {
                let pick = $crate::codec::Rng::random_range(rng, 0..Self::TAGS.len());
                match Self::TAGS[pick].1 {
                    $($tag => $name::$var
                        $({ $($field: $crate::codec::Arb::arb(rng)),* })?
                        $(({
                            let $value: $vty = $crate::codec::Arb::arb(rng);
                            $value
                        }))?,)*
                    _ => unreachable!("a tag from the table"),
                }
            }
        }
    };
    (@id $name:ident {$(
        $(#[$vmeta:meta])*
        $tag:literal => $var:ident
        $({ $($(#[$fmeta:meta])* $field:ident : $fty:ty),* $(,)? })?
    ),* $(,)?}) => {
        impl $name {
            /// The correlation id every variant leads with.
            pub(crate) fn id(&self) -> u64 {
                match self {
                    $($name::$var { id, .. })|* => *id,
                }
            }
        }
    };
    (correlated $(#[$meta:meta])* $vis:vis enum $name:ident $body:tt) => {
        $crate::wire_enum!(@enum [$(#[$meta])* $vis enum $name] $body);
        $crate::wire_enum!(@id $name $body);
    };
    ($(#[$meta:meta])* $vis:vis enum $name:ident $body:tt) => {
        $crate::wire_enum!(@enum [$(#[$meta])* $vis enum $name] $body);
    };
}

/// Declares a struct and derives its codec (see [`wire_fields!`](crate::wire_fields)).
#[macro_export]
macro_rules! wire_struct {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty),* $(,)?
    }) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $fty),*
        }
        $crate::wire_fields!($name { $($field),* });
    };
}

/// Derives [`Put`], [`Get`] and [`Arb`] for a struct, declared with it
/// or elsewhere, from its fields in encoding order.
#[macro_export]
macro_rules! wire_fields {
    ($name:ident { $($field:ident),* $(,)? }) => {
        impl $crate::codec::Put for $name {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                $($crate::codec::Put::put(&self.$field, out);)*
            }
        }

        impl $crate::codec::Get for $name {
            #[inline]
            fn get(r: &mut $crate::codec::Reader<'_>) -> Option<Self> {
                Some($name { $($field: $crate::codec::Get::get(r)?),* })
            }
        }

        impl $crate::codec::Arb for $name {
            fn arb(rng: &mut $crate::codec::StdRng) -> Self {
                $name { $($field: $crate::codec::Arb::arb(rng)),* }
            }
        }
    };
}

// The other crates' types the wire carries, in encoding order: the
// traits are this crate's, so their codecs are declared here.
wire_fields! { TraceTree { id, analyst, total_ns, outcome, spans } }
wire_fields! { TraceSpan { stage, start_ns, duration_ns, outcome, link } }

impl Put for TraceId {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }
}

impl Get for TraceId {
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        u64::get(r).map(TraceId)
    }
}

/// A stage travels as its one-byte index.
impl Put for Stage {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.index() as u8);
    }
}

impl Get for Stage {
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        Stage::from_index(u8::get(r)?.into())
    }
}

/// A random value of an encodable type, for the round-trip and
/// corruption tests of every crate that declares one: the declaring
/// macros derive it, so a new variant is covered the moment it is
/// declared.
#[doc(hidden)]
pub trait Arb {
    fn arb(rng: &mut StdRng) -> Self;
}

impl Arb for u64 {
    fn arb(rng: &mut StdRng) -> u64 {
        rng.random()
    }
}

/// Every bit pattern, NaNs included: compare what a float decodes to by
/// its bytes.
impl Arb for f64 {
    fn arb(rng: &mut StdRng) -> f64 {
        f64::from_bits(rng.random())
    }
}

impl Arb for u16 {
    fn arb(rng: &mut StdRng) -> u16 {
        rng.random::<u32>() as u16
    }
}

impl Arb for u8 {
    fn arb(rng: &mut StdRng) -> u8 {
        rng.random::<u32>() as u8
    }
}

impl Arb for bool {
    fn arb(rng: &mut StdRng) -> bool {
        rng.random()
    }
}

impl Arb for String {
    fn arb(rng: &mut StdRng) -> String {
        let len = rng.random_range(0..12usize);
        (0..len)
            .map(|_| char::from(rng.random_range(b'a'..=b'z')))
            .collect()
    }
}

impl<T: Arb> Arb for Option<T> {
    fn arb(rng: &mut StdRng) -> Option<T> {
        rng.random::<bool>().then(|| T::arb(rng))
    }
}

impl<T: Arb> Arb for Vec<T> {
    fn arb(rng: &mut StdRng) -> Vec<T> {
        (0..rng.random_range(0..6usize))
            .map(|_| T::arb(rng))
            .collect()
    }
}

impl<T: Arb, E: Arb> Arb for Result<T, E> {
    fn arb(rng: &mut StdRng) -> Result<T, E> {
        if rng.random() {
            Ok(T::arb(rng))
        } else {
            Err(E::arb(rng))
        }
    }
}

impl<A: Arb, B: Arb> Arb for (A, B) {
    fn arb(rng: &mut StdRng) -> (A, B) {
        (A::arb(rng), B::arb(rng))
    }
}

impl<K: Arb + Ord, V: Arb> Arb for BTreeMap<K, V> {
    fn arb(rng: &mut StdRng) -> BTreeMap<K, V> {
        (0..rng.random_range(0..6usize))
            .map(|_| (K::arb(rng), V::arb(rng)))
            .collect()
    }
}

impl Arb for TraceId {
    fn arb(rng: &mut StdRng) -> Self {
        TraceId(rng.random())
    }
}

impl Arb for Stage {
    fn arb(rng: &mut StdRng) -> Self {
        Stage::ALL[rng.random_range(0..Stage::ALL.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_RECORD_LEN;
    use rand::SeedableRng;

    /// A count is bounded by the bytes left, not by a record's size: a
    /// map longer than `MAX_RECORD_LEN` round-trips, and a count one past
    /// what the bytes could hold is refused before any item is read.
    #[test]
    fn a_count_is_bounded_by_the_bytes_left() {
        let long: BTreeMap<u64, bool> = (0..=u64::from(MAX_RECORD_LEN))
            .map(|k| (k, k % 3 == 0))
            .collect();
        let bytes = encode(&long);
        assert_eq!(decode(&bytes), Some(long));

        let mut payload = encode(&41u64);
        payload.extend_from_slice(&[1; 32]);
        assert_eq!(payload.len(), 40);
        assert_eq!(decode::<Vec<bool>>(&payload), None);
        assert_eq!(decode::<BTreeMap<u8, bool>>(&payload), None);
        payload[..8].copy_from_slice(&32u64.to_le_bytes());
        assert_eq!(decode::<Vec<bool>>(&payload), Some(vec![true; 32]));
    }

    /// A map has one encoding: keys out of order, or repeated, are
    /// malformed.
    #[test]
    fn map_keys_must_ascend() {
        let pairs = |keys: &[u64]| {
            let mut out = encode(&(keys.len() as u64));
            for &k in keys {
                (k, true).put(&mut out);
            }
            out
        };
        assert!(decode::<BTreeMap<u64, bool>>(&pairs(&[1, 2, 5])).is_some());
        assert_eq!(decode::<BTreeMap<u64, bool>>(&pairs(&[2, 1])), None);
        assert_eq!(decode::<BTreeMap<u64, bool>>(&pairs(&[3, 3])), None);
    }

    /// Floats and byte lists keep their layouts: exact bits, and a `u32`
    /// length in front of bytes.
    #[test]
    fn floats_are_bits_and_bytes_are_u32_prefixed() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..256 {
            let x = f64::arb(&mut rng);
            assert_eq!(encode(&x), x.to_bits().to_le_bytes());
            let back: f64 = decode(&encode(&x)).unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
        assert_eq!(encode(&vec![7u8, 8]), [2, 0, 0, 0, 7, 8]);
        assert_eq!(encode(&"ab".to_string()), [2, 0, 0, 0, b'a', b'b']);
    }
}
