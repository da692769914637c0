//! The field codec every wire message is derived through.
//!
//! A value travels as its fields in declaration order, each encoded by
//! its type, all little-endian: a `u64` in 8 bytes, a `u16` in 2, a
//! `bool` as one byte `0` / `1`, a `String` as a `u32` length then its
//! UTF-8, an `Option` as a byte `0` / `1` then the value, a `Vec` as a
//! `u64` count then the items, a `Result` as a byte `1` (`Ok`) / `2`
//! (`Err`) then the value, and an enum as its variant's one-byte tag then
//! that variant's fields. [`wire_enum!`] and [`wire_struct!`] declare a
//! type once and derive both directions from the declaration, so a field
//! cannot be written in one order and read in another, and a new message
//! is one entry in `proto`'s table.

use bf_store::{put_str, put_u64, Reader};

/// Appends a value's wire encoding to a payload.
pub(crate) trait Put {
    fn put(&self, out: &mut Vec<u8>);

    /// A list: the count, then each item.
    fn put_list(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        put_u64(out, items.len() as u64);
        for item in items {
            item.put(out);
        }
    }
}

/// Reads a value back; `None` when the bytes are not what [`Put`] wrote.
pub(crate) trait Get: Sized {
    fn get(r: &mut Reader<'_>) -> Option<Self>;

    /// Reads [`Put::put_list`] output. The count is attacker-supplied: one
    /// no record could hold is malformed at once, and the `Vec` reserves
    /// only a small prefix, growing with items that actually decode — a
    /// 40-byte frame never commands a 100 MB allocation.
    fn get_list(r: &mut Reader<'_>) -> Option<Vec<Self>> {
        let n = r.u64()?;
        if n > u64::from(bf_store::MAX_RECORD_LEN) {
            return None;
        }
        let mut items = Vec::with_capacity(n.min(64) as usize);
        for _ in 0..n {
            items.push(Self::get(r)?);
        }
        Some(items)
    }
}

/// One value as a payload of its own.
pub(crate) fn encode(value: &impl Put) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    value.put(&mut out);
    out
}

/// One value from a whole payload — trailing bytes are malformed, not
/// ignored.
pub(crate) fn decode<T: Get>(payload: &[u8]) -> Option<T> {
    let mut r = Reader::new(payload);
    let value = T::get(&mut r)?;
    r.done().then_some(value)
}

/// The tag `variant` is declared under in a derived enum's `TAGS`; in a
/// `const`, a name the table lacks fails the build.
pub(crate) const fn tag(tags: &[(&str, u8)], variant: &str) -> u8 {
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

/// A flat list of 8-byte words: the room for all of them made once and
/// filled as one slice.
fn put_words<T>(out: &mut Vec<u8>, items: &[T], bits: impl Fn(&T) -> u64) {
    put_u64(out, items.len() as u64);
    let start = out.len();
    out.resize(start + 8 * items.len(), 0);
    for (bytes, item) in out[start..].chunks_exact_mut(8).zip(items) {
        bytes.copy_from_slice(&bits(item).to_le_bytes());
    }
}

impl Put for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }

    fn put_list(items: &[u64], out: &mut Vec<u8>) {
        put_words(out, items, |w| *w);
    }
}

impl Get for u64 {
    fn get(r: &mut Reader<'_>) -> Option<u64> {
        r.u64()
    }

    fn get_list(r: &mut Reader<'_>) -> Option<Vec<u64>> {
        // The words are taken off the payload as one slice before the
        // `Vec` is sized from it: a count the bytes present cannot back
        // is malformed, never an allocation.
        let len = usize::try_from(r.u64()?).ok()?;
        let bytes = r.take(len.checked_mul(8)?)?;
        Some(
            bytes
                .as_chunks::<8>()
                .0
                .iter()
                .map(|word| u64::from_le_bytes(*word))
                .collect(),
        )
    }
}

/// An engine float travels as its exact bit pattern, so a server encodes
/// an engine answer straight into the frame, with no wire copy of it.
impl Put for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, self.to_bits());
    }

    fn put_list(items: &[f64], out: &mut Vec<u8>) {
        put_words(out, items, |x| x.to_bits());
    }
}

impl Put for u16 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Get for u16 {
    fn get(r: &mut Reader<'_>) -> Option<u16> {
        Some(u16::from_le_bytes([r.u8()?, r.u8()?]))
    }
}

impl Put for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Get for bool {
    fn get(r: &mut Reader<'_>) -> Option<bool> {
        match r.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Put for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }
}

impl Get for String {
    fn get(r: &mut Reader<'_>) -> Option<String> {
        r.str()
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
        match r.u8()? {
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
        match r.u8()? {
            1 => Some(Ok(T::get(r)?)),
            2 => Some(Err(E::get(r)?)),
            _ => None,
        }
    }
}

/// Declares an enum whose every variant carries a wire tag, and derives
/// [`Put`] and [`Get`] for it: the tag byte, then the variant's fields in
/// declaration order. A variant is a unit (`7 => Name`), one named value
/// (`7 => Name(value: Type)`) or named fields (`7 => Name { a: A }`). A
/// repeated tag is an unreachable decode arm, which the lints refuse.
///
/// Derived beside it: `TAGS`, every variant's name and tag; with
/// `correlated` in front, `id()`, the leading `id` field every variant
/// has; with `mirrored by Other` after the variants, [`Put`] for `Other`,
/// whose variants have the same names and fields in types that encode to
/// the same bytes; and under test, a random generator over every variant.
///
/// The derived `put` / `get` are `#[inline]`, so a message's codec
/// compiles to one body, as hand-written arms did: without the hint a
/// scalar exchange decoded ≈ 10 % slower.
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
            /// Every variant's name and wire tag, in declaration order.
            #[allow(dead_code)]
            pub(crate) const TAGS: &'static [(&'static str, u8)] = &[$((stringify!($var), $tag)),*];
        }

        impl $crate::codec::Get for $name {
            #[inline]
            fn get(r: &mut bf_store::Reader<'_>) -> Option<Self> {
                Some(match r.u8()? {
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

        #[cfg(test)]
        impl $crate::codec::tests::Arb for $name {
            fn arb(rng: &mut rand::rngs::StdRng) -> Self {
                use rand::Rng;
                match Self::TAGS[rng.random_range(0..Self::TAGS.len())].1 {
                    $($tag => $name::$var
                        $({ $($field: $crate::codec::tests::Arb::arb(rng)),* })?
                        $(({
                            let $value: $vty = $crate::codec::tests::Arb::arb(rng);
                            $value
                        }))?,)*
                    _ => unreachable!("a tag from the table"),
                }
            }
        }
    };
    (@put $name:ident {$(
        $(#[$vmeta:meta])*
        $tag:literal => $var:ident
        $({ $($(#[$fmeta:meta])* $field:ident : $fty:ty),* $(,)? })?
        $(($value:ident : $vty:ty))?
    ),* $(,)?}) => {
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
        $crate::codec::wire_enum!($(#[$meta])* $vis enum $name $body);
        $crate::codec::wire_enum!(@id $name $body);
    };
    ($(#[$meta:meta])* $vis:vis enum $name:ident $body:tt $(mirrored by $mirror:ident)?) => {
        $crate::codec::wire_enum!(@enum [$(#[$meta])* $vis enum $name] $body);
        $crate::codec::wire_enum!(@put $name $body);
        $( $crate::codec::wire_enum!(@put $mirror $body); )?
    };
}

/// Declares a struct and derives its codec (see [`wire_fields!`]).
macro_rules! wire_struct {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty),* $(,)?
    }) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $fty),*
        }
        $crate::codec::wire_fields!($name { $($field),* });
    };
}

/// Derives [`Put`] and [`Get`] — and under test a random generator — for
/// a struct, declared here or in another crate, from its fields in wire
/// order.
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
            fn get(r: &mut bf_store::Reader<'_>) -> Option<Self> {
                Some($name { $($field: $crate::codec::Get::get(r)?),* })
            }
        }

        #[cfg(test)]
        impl $crate::codec::tests::Arb for $name {
            fn arb(rng: &mut rand::rngs::StdRng) -> Self {
                $name { $($field: $crate::codec::tests::Arb::arb(rng)),* }
            }
        }
    };
}

pub(crate) use {wire_enum, wire_fields, wire_struct};

#[cfg(test)]
pub(crate) mod tests {
    use rand::rngs::StdRng;
    use rand::Rng;

    /// A random value of a wire type, for the round-trip and corruption
    /// tests: the table derives it for every message, so a new variant is
    /// covered the moment it is declared.
    pub(crate) trait Arb {
        fn arb(rng: &mut StdRng) -> Self;
    }

    impl Arb for u64 {
        fn arb(rng: &mut StdRng) -> u64 {
            rng.random()
        }
    }

    impl Arb for u16 {
        fn arb(rng: &mut StdRng) -> u16 {
            rng.random::<u32>() as u16
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
}
