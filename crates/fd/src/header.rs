//! Message headers and the wildcard patterns the MUTE detector matches on.
//!
//! The paper splits every message into "a header part and a data part. The
//! header part can be anticipated based on local information only": "the
//! type of a message (application data, gossip, request for retransmission,
//! etc.), the id of the originator, and a sequence number". The `expect`
//! interface accepts headers with "wildcards as well as exact values for each
//! of the header's fields" — [`HeaderPattern`] implements exactly that.

use byzcast_sim::NodeId;

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
    /// Number of kinds: a per-kind table has this length and is indexed by
    /// `kind as usize`. Derived from `Beacon`, which must stay the last
    /// variant.
    pub const COUNT: usize = MsgKind::Beacon as usize + 1;

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

/// The anticipatable part of a message: type, originator, sequence number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MsgHeader {
    /// The message type.
    pub kind: MsgKind,
    /// The originator of the (application) message this refers to.
    pub origin: NodeId,
    /// The originator's sequence number for the message.
    pub seq: u64,
}

impl MsgHeader {
    /// Builds a header.
    pub const fn new(kind: MsgKind, origin: NodeId, seq: u64) -> Self {
        MsgHeader { kind, origin, seq }
    }
}

/// A header with optional wildcards per field (`None` = match anything).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct HeaderPattern {
    /// Required message type, if any.
    pub kind: Option<MsgKind>,
    /// Required originator, if any.
    pub origin: Option<NodeId>,
    /// Required sequence number, if any.
    pub seq: Option<u64>,
}

impl HeaderPattern {
    /// Matches any header at all.
    pub const fn any() -> Self {
        HeaderPattern {
            kind: None,
            origin: None,
            seq: None,
        }
    }

    /// Matches any header of the given type.
    pub const fn any_of_kind(kind: MsgKind) -> Self {
        HeaderPattern {
            kind: Some(kind),
            origin: None,
            seq: None,
        }
    }

    /// Matches exactly one header.
    pub const fn exact(header: MsgHeader) -> Self {
        HeaderPattern {
            kind: Some(header.kind),
            origin: Some(header.origin),
            seq: Some(header.seq),
        }
    }

    /// Matches the data message identified by `(origin, seq)` — the pattern
    /// the dissemination task registers when it expects the overlay to
    /// forward a message.
    pub const fn data_msg(origin: NodeId, seq: u64) -> Self {
        HeaderPattern {
            kind: Some(MsgKind::Data),
            origin: Some(origin),
            seq: Some(seq),
        }
    }

    /// Whether `header` satisfies the pattern.
    pub fn matches(&self, header: &MsgHeader) -> bool {
        self.kind.is_none_or(|k| k == header.kind)
            && self.origin.is_none_or(|o| o == header.origin)
            && self.seq.is_none_or(|s| s == header.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(kind: MsgKind, origin: u32, seq: u64) -> MsgHeader {
        MsgHeader::new(kind, NodeId(origin), seq)
    }

    #[test]
    fn wildcard_matches_everything() {
        let p = HeaderPattern::any();
        assert!(p.matches(&h(MsgKind::Data, 1, 2)));
        assert!(p.matches(&h(MsgKind::Gossip, 9, 0)));
    }

    #[test]
    fn exact_matches_only_itself() {
        let target = h(MsgKind::Data, 3, 7);
        let p = HeaderPattern::exact(target);
        assert!(p.matches(&target));
        assert!(!p.matches(&h(MsgKind::Data, 3, 8)));
        assert!(!p.matches(&h(MsgKind::Data, 4, 7)));
        assert!(!p.matches(&h(MsgKind::Gossip, 3, 7)));
    }

    #[test]
    fn partial_wildcards() {
        let p = HeaderPattern {
            kind: Some(MsgKind::Data),
            origin: Some(NodeId(3)),
            seq: None,
        };
        assert!(p.matches(&h(MsgKind::Data, 3, 0)));
        assert!(p.matches(&h(MsgKind::Data, 3, 99)));
        assert!(!p.matches(&h(MsgKind::Data, 4, 0)));
    }

    #[test]
    fn data_msg_helper() {
        let p = HeaderPattern::data_msg(NodeId(2), 5);
        assert!(p.matches(&h(MsgKind::Data, 2, 5)));
        assert!(!p.matches(&h(MsgKind::Gossip, 2, 5)));
    }

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
