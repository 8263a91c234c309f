//! Hand-rolled binary wire codec for the core vocabulary.
//!
//! `discsp-net` runs solve sessions across OS processes, so every type
//! that crosses a socket needs a stable byte representation. This module
//! defines the [`Wire`] trait (little-endian, length-prefixed
//! collections, no serde) plus implementations for the core types that
//! appear in protocol frames: ids, values, priorities, nogoods,
//! assignments, domains, and run metrics.
//!
//! Decoding is total: malformed input yields a typed [`WireError`], never
//! a panic, so a corrupted or truncated frame cannot take down a
//! coordinator or agent process. Collection length prefixes are checked
//! against the bytes actually remaining before any allocation, and a
//! `Vec` reserves at most [`VEC_RESERVE_BYTES`] before its elements
//! decode, so a corrupt length cannot trigger an oversized allocation
//! either.

use std::fmt;

use crate::assignment::{Assignment, VarValue};
use crate::domain::Domain;
use crate::ids::{AgentId, VariableId};
use crate::message::MessageClass;
use crate::metrics::{RunMetrics, Termination};
use crate::nogood::Nogood;
use crate::priority::Priority;
use crate::value::Value;

/// Ways a byte buffer can fail to decode.
///
/// Every variant carries a static `context` naming the type or field
/// being decoded when the failure was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated {
        /// Type or field being decoded.
        context: &'static str,
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// An enum discriminant byte had no corresponding variant.
    BadTag {
        /// Type being decoded.
        context: &'static str,
        /// The offending discriminant.
        tag: u8,
    },
    /// The bytes decoded structurally but violate a domain invariant
    /// (empty domain, conflicting nogood elements, …).
    Invalid {
        /// Type or invariant that was violated.
        context: &'static str,
    },
    /// A complete value was decoded but bytes were left over.
    Trailing {
        /// Leftover byte count.
        remaining: usize,
    },
    /// A frame announced a protocol version this build does not speak.
    BadVersion {
        /// Version byte found on the wire.
        got: u8,
        /// Version this build implements.
        expected: u8,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated {
                context,
                needed,
                have,
            } => write!(
                f,
                "truncated while decoding {context}: needed {needed} bytes, have {have}"
            ),
            WireError::BadTag { context, tag } => {
                write!(f, "bad tag {tag} while decoding {context}")
            }
            WireError::Invalid { context } => write!(f, "invalid encoding of {context}"),
            WireError::Trailing { remaining } => {
                write!(f, "{remaining} trailing bytes after a complete value")
            }
            WireError::BadVersion { got, expected } => {
                write!(
                    f,
                    "wire version {got} not supported (this build speaks {expected})"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A cursor over a byte buffer being decoded.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes exactly `n` bytes, or reports truncation against `context`.
    pub fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        let have = self.remaining();
        if have < n {
            return Err(WireError::Truncated {
                context,
                needed: n,
                have,
            });
        }
        let start = self.pos;
        self.pos += n;
        Ok(&self.buf[start..self.pos])
    }

    /// Consumes exactly `N` bytes into an array, or reports truncation.
    fn take_array<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N], WireError> {
        let bytes = self.take(N, context)?;
        let mut out = [0u8; N];
        for (dst, src) in out.iter_mut().zip(bytes) {
            *dst = *src;
        }
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        let [b] = self.take_array(context)?;
        Ok(b)
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, context: &'static str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take_array(context)?))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take_array(context)?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take_array(context)?))
    }

    /// Reads a collection length prefix and bounds-checks it against the
    /// bytes remaining (every element encodes to at least one byte, so a
    /// length exceeding `remaining()` is unsatisfiable — rejecting it
    /// here keeps a corrupt prefix from provoking a huge allocation).
    pub fn len_prefix(&mut self, context: &'static str) -> Result<usize, WireError> {
        let len = self.u32(context)? as usize;
        let have = self.remaining();
        if len > have {
            return Err(WireError::Truncated {
                context,
                needed: len,
                have,
            });
        }
        Ok(len)
    }

    /// Asserts the buffer was fully consumed.
    pub fn finish(self) -> Result<(), WireError> {
        let remaining = self.remaining();
        if remaining > 0 {
            return Err(WireError::Trailing { remaining });
        }
        Ok(())
    }
}

/// A type with a stable binary encoding.
///
/// Encodings are little-endian and self-delimiting: `decode` consumes
/// exactly the bytes `encode` produced, so values concatenate without
/// separators. `decode(encode(x)) == x` for every valid value (this is
/// property-tested in `discsp-net`).
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value, advancing the reader past it.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Encodes into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes a value that must span the whole buffer.
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let value = Self::decode(&mut r)?;
        r.finish()?;
        Ok(value)
    }
}

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u8("u8")
    }
}

impl Wire for u16 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u16("u16")
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u32("u32")
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u64("u64")
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8("bool")? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag {
                context: "bool",
                tag,
            }),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8("Option")? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::BadTag {
                context: "Option",
                tag,
            }),
        }
    }
}

/// Bytes a decoding `Vec` reserves before any element has decoded.
///
/// A length prefix is bounded only by the bytes left in the frame, and
/// an element may be far larger in memory than on the wire (a
/// `TraceEvent` is 152 bytes in memory and may encode to one byte on
/// the wire). Reserving the claimed length outright would let one
/// malformed 16 MiB frame reserve gigabytes; past this budget the
/// vector grows only as elements actually decode.
pub const VEC_RESERVE_BYTES: usize = 64 * 1024;

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for item in self {
            item.encode(out);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.len_prefix("Vec")?;
        let budget = VEC_RESERVE_BYTES / std::mem::size_of::<T>().max(1);
        let mut items = Vec::with_capacity(len.min(budget));
        for _ in 0..len {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let a = A::decode(r)?;
        let b = B::decode(r)?;
        Ok((a, b))
    }
}

impl Wire for AgentId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.raw().encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(AgentId::new(r.u32("AgentId")?))
    }
}

impl Wire for VariableId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.raw().encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(VariableId::new(r.u32("VariableId")?))
    }
}

impl Wire for Value {
    fn encode(&self, out: &mut Vec<u8>) {
        self.raw().encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Value::new(r.u16("Value")?))
    }
}

impl Wire for Priority {
    fn encode(&self, out: &mut Vec<u8>) {
        self.get().encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Priority::new(r.u64("Priority")?))
    }
}

impl Wire for VarValue {
    fn encode(&self, out: &mut Vec<u8>) {
        self.var.encode(out);
        self.value.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let var = VariableId::decode(r)?;
        let value = Value::decode(r)?;
        Ok(VarValue { var, value })
    }
}

impl Wire for Domain {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.size() as u16).encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let size = r.u16("Domain")?;
        if size == 0 {
            return Err(WireError::Invalid { context: "Domain" });
        }
        Ok(Domain::new(size))
    }
}

impl Wire for Nogood {
    fn encode(&self, out: &mut Vec<u8>) {
        self.elems().to_vec().encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let elems = Vec::<VarValue>::decode(r)?;
        Nogood::try_new(elems).map_err(|_| WireError::Invalid { context: "Nogood" })
    }
}

/// The `Vec<Option<Value>>` codec, so a hostile length prefix reserves
/// at most [`VEC_RESERVE_BYTES`] before the values decode.
impl Wire for Assignment {
    fn encode(&self, out: &mut Vec<u8>) {
        self.values.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Assignment {
            values: Vec::decode(r)?,
        })
    }
}

impl Wire for MessageClass {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            MessageClass::Ok => 0,
            MessageClass::Nogood => 1,
            MessageClass::Other => 2,
        };
        out.push(tag);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8("MessageClass")? {
            0 => Ok(MessageClass::Ok),
            1 => Ok(MessageClass::Nogood),
            2 => Ok(MessageClass::Other),
            tag => Err(WireError::BadTag {
                context: "MessageClass",
                tag,
            }),
        }
    }
}

impl Wire for Termination {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            Termination::Solved => 0,
            Termination::CutOff => 1,
            Termination::Insoluble => 2,
        };
        out.push(tag);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8("Termination")? {
            0 => Ok(Termination::Solved),
            1 => Ok(Termination::CutOff),
            2 => Ok(Termination::Insoluble),
            tag => Err(WireError::BadTag {
                context: "Termination",
                tag,
            }),
        }
    }
}

impl Wire for RunMetrics {
    fn encode(&self, out: &mut Vec<u8>) {
        self.termination.encode(out);
        self.cycles.encode(out);
        self.maxcck.encode(out);
        self.total_checks.encode(out);
        self.ok_messages.encode(out);
        self.nogood_messages.encode(out);
        self.other_messages.encode(out);
        self.nogoods_generated.encode(out);
        self.redundant_nogoods.encode(out);
        self.largest_nogood.encode(out);
        self.messages_sent.encode(out);
        self.messages_dropped.encode(out);
        self.messages_duplicated.encode(out);
        self.messages_reordered.encode(out);
        self.messages_retransmitted.encode(out);
        self.max_delivery_delay.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut metrics = RunMetrics::new(Termination::decode(r)?);
        metrics.cycles = r.u64("RunMetrics.cycles")?;
        metrics.maxcck = r.u64("RunMetrics.maxcck")?;
        metrics.total_checks = r.u64("RunMetrics.total_checks")?;
        metrics.ok_messages = r.u64("RunMetrics.ok_messages")?;
        metrics.nogood_messages = r.u64("RunMetrics.nogood_messages")?;
        metrics.other_messages = r.u64("RunMetrics.other_messages")?;
        metrics.nogoods_generated = r.u64("RunMetrics.nogoods_generated")?;
        metrics.redundant_nogoods = r.u64("RunMetrics.redundant_nogoods")?;
        metrics.largest_nogood = r.u64("RunMetrics.largest_nogood")?;
        metrics.messages_sent = r.u64("RunMetrics.messages_sent")?;
        metrics.messages_dropped = r.u64("RunMetrics.messages_dropped")?;
        metrics.messages_duplicated = r.u64("RunMetrics.messages_duplicated")?;
        metrics.messages_reordered = r.u64("RunMetrics.messages_reordered")?;
        metrics.messages_retransmitted = r.u64("RunMetrics.messages_retransmitted")?;
        metrics.max_delivery_delay = r.u64("RunMetrics.max_delivery_delay")?;
        Ok(metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.to_bytes();
        assert_eq!(T::from_bytes(&bytes).as_ref(), Ok(&value));
        // Every strict prefix of an exact encoding must fail cleanly.
        for cut in 0..bytes.len() {
            assert!(
                T::from_bytes(&bytes[..cut]).is_err(),
                "prefix {cut} decoded"
            );
        }
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0xABu8);
        roundtrip(0xAB_CDu16);
        roundtrip(0xAB_CD_EF_01u32);
        roundtrip(u64::MAX - 7);
        roundtrip(true);
        roundtrip(false);
        roundtrip(Some(Value::new(3)));
        roundtrip(Option::<Value>::None);
        roundtrip(vec![1u32, 2, 3]);
        roundtrip((AgentId::new(4), VariableId::new(9)));
    }

    #[test]
    fn core_types_roundtrip() {
        roundtrip(AgentId::new(17));
        roundtrip(VariableId::new(0));
        roundtrip(Value::new(2));
        roundtrip(Priority::new(99));
        roundtrip(VarValue {
            var: VariableId::new(3),
            value: Value::new(1),
        });
        roundtrip(Domain::new(3));
        roundtrip(Nogood::of(
            [(0u32, 1u16), (2, 0)].map(|(v, x)| (VariableId::new(v), Value::new(x))),
        ));
        roundtrip(Nogood::empty());
        let mut partial = Assignment::empty(3);
        partial.set(VariableId::new(1), Value::new(2));
        roundtrip(partial);
        roundtrip(Assignment::total([Value::new(0), Value::new(2)]));
        roundtrip(Termination::Insoluble);
        roundtrip(MessageClass::Ok);
        roundtrip(MessageClass::Nogood);
        roundtrip(MessageClass::Other);
        let mut metrics = RunMetrics::new(Termination::Solved);
        metrics.cycles = 42;
        metrics.messages_dropped = 7;
        metrics.max_delivery_delay = 3;
        roundtrip(metrics);
    }

    #[test]
    fn bad_tags_are_typed_errors() {
        assert_eq!(
            bool::from_bytes(&[2]),
            Err(WireError::BadTag {
                context: "bool",
                tag: 2
            })
        );
        assert_eq!(
            Termination::from_bytes(&[9]),
            Err(WireError::BadTag {
                context: "Termination",
                tag: 9
            })
        );
        assert!(matches!(
            Option::<u8>::from_bytes(&[7, 0]),
            Err(WireError::BadTag { .. })
        ));
    }

    #[test]
    fn invalid_values_are_typed_errors() {
        // Zero-sized domain.
        assert_eq!(
            Domain::from_bytes(&[0, 0]),
            Err(WireError::Invalid { context: "Domain" })
        );
        // Nogood with two values for the same variable.
        let conflicting = vec![
            VarValue {
                var: VariableId::new(1),
                value: Value::new(0),
            },
            VarValue {
                var: VariableId::new(1),
                value: Value::new(1),
            },
        ];
        let bytes = conflicting.to_bytes();
        assert_eq!(
            Nogood::from_bytes(&bytes),
            Err(WireError::Invalid { context: "Nogood" })
        );
    }

    #[test]
    fn corrupt_length_prefix_is_rejected_before_allocation() {
        // Announces u32::MAX elements with a 0-byte body.
        let bytes = u32::MAX.to_bytes();
        assert!(matches!(
            Vec::<u64>::from_bytes(&bytes),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Value::new(1).to_bytes();
        bytes.push(0);
        assert_eq!(
            Value::from_bytes(&bytes),
            Err(WireError::Trailing { remaining: 1 })
        );
    }

    #[test]
    fn errors_display_their_context() {
        let text = WireError::Truncated {
            context: "Nogood",
            needed: 8,
            have: 3,
        }
        .to_string();
        assert!(text.contains("Nogood"));
        let text = WireError::BadVersion {
            got: 9,
            expected: 1,
        }
        .to_string();
        assert!(text.contains('9'));
    }
}
