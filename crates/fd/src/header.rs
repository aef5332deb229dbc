//! The message types of a header.
//!
//! The paper splits every message into "a header part and a data part. The
//! header part can be anticipated based on local information only": "the
//! type of a message (application data, gossip, request for retransmission,
//! etc.), the id of the originator, and a sequence number". The type is
//! [`MsgKind`]; VERBOSE keys its spacing rules on it, and the wire messages
//! take their kind labels from it. MUTE only ever expects data messages, so it names them
//! by originator and sequence number alone (see [`crate::mute::DataId`]).

/// The protocol message types of the dissemination algorithm (Figures 3–4).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MsgKind {
    /// An application data message (`DATA` in the pseudo-code).
    Data,
    /// A signature gossip (`GOSSIP`).
    Gossip,
    /// A retransmission request (`REQUEST_MSG`).
    RequestMsg,
    /// An overlay-level search for a missing message (`FIND_MISSING_MSG`).
    FindMissingMsg,
    /// An overlay-maintenance beacon.
    Beacon,
}

impl MsgKind {
    /// Short label for metrics and traces.
    pub const fn label(self) -> &'static str {
        match self {
            MsgKind::Data => "data",
            MsgKind::Gossip => "gossip",
            MsgKind::RequestMsg => "request",
            MsgKind::FindMissingMsg => "find_missing",
            MsgKind::Beacon => "beacon",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_are_distinct() {
        let kinds = [
            MsgKind::Data,
            MsgKind::Gossip,
            MsgKind::RequestMsg,
            MsgKind::FindMissingMsg,
            MsgKind::Beacon,
        ];
        let labels: std::collections::HashSet<&str> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }
}
