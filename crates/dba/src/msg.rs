//! The distributed breakout message protocol.

use std::fmt;

use discsp_core::{Value, VariableId, Wire, WireError, WireReader};
use discsp_runtime::{Classify, MessageClass};
use serde::{Deserialize, Serialize};

use crate::agent::WeightMode;

/// Messages exchanged by DB agents (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DbaMessage {
    /// `ok?` — announces the sender's current value.
    Ok {
        /// The announced variable.
        var: VariableId,
        /// Its current value.
        value: Value,
    },
    /// `improve` — announces the sender's possible maximal improvement
    /// and current cost, so neighbors can arbitrate the right to move.
    Improve {
        /// The sender's best achievable cost reduction.
        improve: u64,
        /// The sender's current weighted violation cost.
        eval: u64,
    },
}

impl Classify for DbaMessage {
    fn class(&self) -> MessageClass {
        match self {
            DbaMessage::Ok { .. } => MessageClass::Ok,
            DbaMessage::Improve { .. } => MessageClass::Other,
        }
    }
}

impl fmt::Display for DbaMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbaMessage::Ok { var, value } => write!(f, "ok?({var}={value})"),
            DbaMessage::Improve { improve, eval } => {
                write!(f, "improve({improve}, eval {eval})")
            }
        }
    }
}

impl Wire for DbaMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DbaMessage::Ok { var, value } => {
                out.push(0);
                var.encode(out);
                value.encode(out);
            }
            DbaMessage::Improve { improve, eval } => {
                out.push(1);
                improve.encode(out);
                eval.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8("DbaMessage")? {
            0 => {
                let var = VariableId::decode(r)?;
                let value = Value::decode(r)?;
                Ok(DbaMessage::Ok { var, value })
            }
            1 => {
                let improve = r.u64("DbaMessage.improve")?;
                let eval = r.u64("DbaMessage.eval")?;
                Ok(DbaMessage::Improve { improve, eval })
            }
            tag => Err(WireError::BadTag {
                context: "DbaMessage",
                tag,
            }),
        }
    }
}

impl Wire for WeightMode {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            WeightMode::PerNogood => 0,
            WeightMode::PerPair => 1,
        };
        out.push(tag);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8("WeightMode")? {
            0 => Ok(WeightMode::PerNogood),
            1 => Ok(WeightMode::PerPair),
            tag => Err(WireError::BadTag {
                context: "WeightMode",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_and_display() {
        let ok = DbaMessage::Ok {
            var: VariableId::new(1),
            value: Value::new(2),
        };
        assert_eq!(ok.class(), MessageClass::Ok);
        assert_eq!(ok.to_string(), "ok?(x1=2)");
        let imp = DbaMessage::Improve {
            improve: 3,
            eval: 5,
        };
        assert_eq!(imp.class(), MessageClass::Other);
        assert_eq!(imp.to_string(), "improve(3, eval 5)");
    }

    #[test]
    fn messages_and_modes_roundtrip_on_the_wire() {
        let samples = [
            DbaMessage::Ok {
                var: VariableId::new(4),
                value: Value::new(1),
            },
            DbaMessage::Improve {
                improve: 6,
                eval: 9,
            },
        ];
        for msg in samples {
            assert_eq!(DbaMessage::from_bytes(&msg.to_bytes()), Ok(msg));
        }
        for mode in [WeightMode::PerNogood, WeightMode::PerPair] {
            assert_eq!(WeightMode::from_bytes(&mode.to_bytes()), Ok(mode));
        }
        assert!(matches!(
            DbaMessage::from_bytes(&[7]),
            Err(WireError::BadTag { .. })
        ));
    }
}
