//! The wire format of the Byzantine dissemination protocol.
//!
//! Line 1 of the pseudo-code builds a data message as
//! `msg_id ‖ node_id ‖ msg ‖ sig(msg_id ‖ node_id ‖ msg)` and line 2 a gossip
//! message as `msg_id ‖ node_id ‖ sig(msg_id ‖ node_id)`. Both originator
//! signatures travel with the data message (the paper's footnote 5 notes the
//! first gossip can be piggybacked on the message), so that any receiver can
//! later gossip a *verifiable* entry: gossip receivers can check
//! `sig(msg_id ‖ node_id)` without possessing the message body — which is the
//! whole point of gossiping signatures instead of payloads.
//!
//! A signed DATA body is immutable once signed, so the network shares one
//! allocation of it: [`WireMsg::Data`] carries an `Arc<DataMsg>`, and every
//! forward and every receiver's store keeps that same `Arc`. Only a change
//! of TTL (the one unsigned field) makes a new allocation; see
//! [`DataMsg::share_with_ttl`].
//!
//! Simulation note: application payloads are represented by `(payload_id,
//! payload_len)` rather than real bytes; signatures cover these fields, so a
//! Byzantine node that tampers with either is caught exactly as a real
//! payload tamperer would be.

use std::sync::Arc;

use byzcast_crypto::{Signature, Signer, SignerId, Verifier};
use byzcast_fd::MsgKind;
use byzcast_overlay::{AdvertisedLists, OverlayRole};
use byzcast_sim::{Message, NodeId};

/// Uniquely identifies an application message: `(originator, sequence)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MessageId {
    /// The originator of the message.
    pub origin: NodeId,
    /// The originator's sequence number.
    pub seq: u64,
}

impl MessageId {
    /// Builds an id.
    pub const fn new(origin: NodeId, seq: u64) -> Self {
        MessageId { origin, seq }
    }

    /// Canonical bytes signed in the gossip signature (`msg_id ‖ node_id`).
    pub fn id_bytes(&self) -> [u8; 12] {
        let mut out = [0u8; 12];
        out[..4].copy_from_slice(&self.origin.0.to_le_bytes());
        out[4..].copy_from_slice(&self.seq.to_le_bytes());
        out
    }
}

/// Canonical bytes signed in the message signature
/// (`msg_id ‖ node_id ‖ msg`): id plus the payload representation.
fn msg_bytes(id: MessageId, payload_id: u64, payload_len: u32) -> [u8; 24] {
    let mut out = [0u8; 24];
    out[..12].copy_from_slice(&id.id_bytes());
    out[12..20].copy_from_slice(&payload_id.to_le_bytes());
    out[20..].copy_from_slice(&payload_len.to_le_bytes());
    out
}

/// A full application data message (`DATA`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DataMsg {
    /// The message identity.
    pub id: MessageId,
    /// Workload-assigned payload id (stands in for the payload bytes).
    pub payload_id: u64,
    /// Application payload length in bytes (contributes to air time).
    pub payload_len: u32,
    /// Originator signature over the full message.
    pub msg_sig: Signature,
    /// Originator signature over the id alone (piggybacked gossip signature).
    pub id_sig: Signature,
    /// Remaining hops: 1 for normal overlay flooding, 2 for recovery
    /// responses that must cross a possibly-Byzantine hop.
    pub ttl: u8,
}

impl DataMsg {
    /// Builds and signs a fresh data message at the originator.
    pub fn sign(signer: &dyn Signer, seq: u64, payload_id: u64, payload_len: u32) -> Self {
        let origin = NodeId(signer.id().0);
        let id = MessageId::new(origin, seq);
        DataMsg {
            id,
            payload_id,
            payload_len,
            msg_sig: signer.sign(&msg_bytes(id, payload_id, payload_len)),
            id_sig: signer.sign(&id.id_bytes()),
            ttl: 1,
        }
    }

    /// Verifies the originator's full-message signature.
    pub fn verify(&self, verifier: &dyn Verifier) -> bool {
        verifier.verify(
            SignerId(self.id.origin.0),
            &msg_bytes(self.id, self.payload_id, self.payload_len),
            &self.msg_sig,
        )
    }

    /// The gossip entry announcing this message.
    pub fn gossip_entry(&self) -> GossipEntry {
        GossipEntry {
            id: self.id,
            payload_id: self.payload_id,
            payload_len: self.payload_len,
            id_sig: self.id_sig,
        }
    }

    /// A copy with the given TTL (used by recovery responses).
    pub fn with_ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// The shared body with the given TTL: the same allocation when the TTL
    /// already matches, a new one only when it really changes.
    pub fn share_with_ttl(this: &Arc<Self>, ttl: u8) -> Arc<Self> {
        if this.ttl == ttl {
            Arc::clone(this)
        } else {
            Arc::new(this.with_ttl(ttl))
        }
    }

    const BASE_WIRE: usize = 1 + 12 + 8 + 4 + Signature::WIRE_SIZE * 2 + 1;

    /// Serialized size in bytes.
    pub fn wire_size(&self) -> usize {
        Self::BASE_WIRE + self.payload_len as usize
    }
}

/// One gossiped signature: `msg_id ‖ node_id ‖ sig(msg_id ‖ node_id)` plus
/// the payload metadata a requester will need to verify the recovered body.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GossipEntry {
    /// The message identity.
    pub id: MessageId,
    /// Payload id of the announced message.
    pub payload_id: u64,
    /// Payload length of the announced message.
    pub payload_len: u32,
    /// Originator signature over the id.
    pub id_sig: Signature,
}

impl GossipEntry {
    /// Serialized size in bytes.
    pub const WIRE_SIZE: usize = 12 + 8 + 4 + Signature::WIRE_SIZE;

    /// Verifies the originator's id signature.
    pub fn verify(&self, verifier: &dyn Verifier) -> bool {
        verifier.verify(
            SignerId(self.id.origin.0),
            &self.id.id_bytes(),
            &self.id_sig,
        )
    }
}

/// An aggregated gossip packet (`GOSSIP`). "As gossips are sent
/// periodically, multiple gossip messages are aggregated into one packet,
/// thereby greatly reducing the number of messages generated." The paper
/// further notes that "for performance reasons, most overlay maintenance
/// messages can be piggybacked on gossip messages" — hence the optional
/// embedded beacon.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GossipMsg {
    /// The aggregated entries.
    pub entries: Vec<GossipEntry>,
    /// A piggybacked overlay-maintenance beacon, when one is due.
    pub beacon: Option<BeaconMsg>,
}

impl GossipMsg {
    /// A gossip packet with entries only.
    pub fn of_entries(entries: Vec<GossipEntry>) -> Self {
        GossipMsg {
            entries,
            beacon: None,
        }
    }

    /// Serialized size in bytes.
    pub fn wire_size(&self) -> usize {
        1 + 2
            + self.entries.len() * GossipEntry::WIRE_SIZE
            + self.beacon.as_ref().map_or(0, |b| b.wire_size())
    }
}

/// A retransmission request (`REQUEST_MSG`): line 32 of the pseudo-code
/// broadcasts the gossip entry with the gossiper as target.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RequestMsg {
    /// The gossip entry of the missing message (self-authenticating).
    pub entry: GossipEntry,
    /// The node known to have the message (the gossiper), `p_k` in the
    /// pseudo-code's request handler.
    pub target: NodeId,
}

impl RequestMsg {
    /// Serialized size in bytes.
    pub const WIRE_SIZE: usize = 1 + GossipEntry::WIRE_SIZE + 4;
}

/// An overlay-level search for a missing message (`FIND_MISSING_MSG`),
/// flooded with TTL 2 "in order to bypass a potential neighboring Byzantine
/// node".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FindMissingMsg {
    /// The gossip entry of the missing message.
    pub entry: GossipEntry,
    /// The node known to have the message, relayed from the request.
    pub target: NodeId,
    /// Remaining hops (starts at 2).
    pub ttl: u8,
}

impl FindMissingMsg {
    /// Serialized size in bytes.
    pub const WIRE_SIZE: usize = 1 + GossipEntry::WIRE_SIZE + 4 + 1;
}

/// An overlay-maintenance beacon, signed by its sender ("we assume that
/// overlay maintenance messages are signed as well").
///
/// A beacon is immutable once built: its fields are private, and it keeps
/// the canonical bytes they encode, so receivers verify those bytes as they
/// are instead of rebuilding them. Every constructor derives the bytes from
/// the parts, which keeps them in step with what the accessors return. The
/// lists are shared (`Arc<[NodeId]>`): a clone of the beacon, and every
/// receiver's neighbour-table entry, refer to the sender's one allocation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BeaconMsg {
    sender: NodeId,
    role: OverlayRole,
    marked: bool,
    lists: AdvertisedLists,
    suspects: Arc<[NodeId]>,
    /// The canonical encoding of all of the above: what `sig` signs.
    signed: Arc<[u8]>,
    sig: Signature,
}

impl BeaconMsg {
    fn canonical_bytes(
        sender: NodeId,
        role: OverlayRole,
        marked: bool,
        lists: [&[NodeId]; 3],
    ) -> Arc<[u8]> {
        let mut out = Vec::with_capacity(6 + lists.iter().map(|l| 4 + 4 * l.len()).sum::<usize>());
        out.extend_from_slice(&sender.0.to_le_bytes());
        out.push(match role {
            OverlayRole::Passive => 0,
            OverlayRole::Dominator => 1,
            OverlayRole::Bridge => 2,
        });
        out.push(marked as u8);
        for list in lists {
            out.extend_from_slice(&(list.len() as u32).to_le_bytes());
            for n in list {
                out.extend_from_slice(&n.0.to_le_bytes());
            }
        }
        out.into()
    }

    /// Builds and signs a beacon. `marked` defaults to the role's activity;
    /// use [`BeaconMsg::sign_marked`] to advertise it independently.
    pub fn sign(
        signer: &dyn Signer,
        role: OverlayRole,
        neighbors: impl AsRef<[NodeId]>,
        dominator_neighbors: impl AsRef<[NodeId]>,
        suspects: impl Into<Arc<[NodeId]>>,
    ) -> Self {
        Self::sign_marked(
            signer,
            role,
            role.is_active(),
            neighbors,
            dominator_neighbors,
            suspects,
        )
    }

    /// Builds and signs a beacon with an explicit marked flag.
    pub fn sign_marked(
        signer: &dyn Signer,
        role: OverlayRole,
        marked: bool,
        neighbors: impl AsRef<[NodeId]>,
        dominator_neighbors: impl AsRef<[NodeId]>,
        suspects: impl Into<Arc<[NodeId]>>,
    ) -> Self {
        let mut b = Self::from_parts(
            NodeId(signer.id().0),
            role,
            marked,
            AdvertisedLists::new(neighbors.as_ref(), dominator_neighbors.as_ref()),
            suspects,
            Signature::zero(),
        );
        b.sig = signer.sign(&b.signed);
        b
    }

    /// Assembles a beacon from its parts and a signature made elsewhere —
    /// how a Byzantine node builds a forged or tampered beacon. The signed
    /// bytes are derived from the parts, so `sig` verifies only if it really
    /// signs them.
    pub fn from_parts(
        sender: NodeId,
        role: OverlayRole,
        marked: bool,
        lists: AdvertisedLists,
        suspects: impl Into<Arc<[NodeId]>>,
        sig: Signature,
    ) -> Self {
        let suspects = suspects.into();
        let signed = Self::canonical_bytes(
            sender,
            role,
            marked,
            [lists.neighbors(), lists.dominator_neighbors(), &suspects],
        );
        BeaconMsg {
            sender,
            role,
            marked,
            lists,
            suspects,
            signed,
            sig,
        }
    }

    /// The beaconing node.
    pub fn sender(&self) -> NodeId {
        self.sender
    }

    /// Its current overlay role.
    pub fn role(&self) -> OverlayRole {
        self.role
    }

    /// Its Wu–Li *marked* flag (role-independent; CDS pruning compares
    /// against neighbours' marked flags, see `byzcast_overlay::cds`).
    pub fn marked(&self) -> bool {
        self.marked
    }

    /// Its one-hop neighbour list, as sent (a correct sender's is sorted).
    pub fn neighbors(&self) -> &[NodeId] {
        self.lists.neighbors()
    }

    /// Its dominator neighbours (for the MIS+B 3-hop bridge rule).
    pub fn dominator_neighbors(&self) -> &[NodeId] {
        self.lists.dominator_neighbors()
    }

    /// Both advertised lists, in their one shared allocation.
    pub fn lists(&self) -> &AdvertisedLists {
        &self.lists
    }

    /// Nodes it currently suspects (second-hand trust reports: "a node that
    /// suspects one of its neighbors should notify its other neighbors").
    pub fn suspects(&self) -> &[NodeId] {
        &self.suspects
    }

    /// The sender's signature over all of the above.
    pub fn sig(&self) -> &Signature {
        &self.sig
    }

    /// Verifies the sender's signature over the beacon's canonical bytes.
    pub fn verify(&self, verifier: &dyn Verifier) -> bool {
        verifier.verify(SignerId(self.sender.0), &self.signed, &self.sig)
    }

    /// Serialized size in bytes.
    pub fn wire_size(&self) -> usize {
        1 + 4
            + 1
            + 1
            + 3 * 2
            + 4 * (self.neighbors().len() + self.dominator_neighbors().len() + self.suspects.len())
            + Signature::WIRE_SIZE
    }
}

/// The protocol's wire message: everything a byzcast node puts on the air.
#[derive(Clone, PartialEq, Debug)]
pub enum WireMsg {
    /// An application data message, its signed body shared by reference.
    Data(Arc<DataMsg>),
    /// An aggregated signature gossip.
    Gossip(GossipMsg),
    /// A retransmission request.
    Request(RequestMsg),
    /// A TTL-2 overlay search for a missing message.
    FindMissing(FindMissingMsg),
    /// An overlay-maintenance beacon.
    Beacon(BeaconMsg),
}

impl WireMsg {
    /// A DATA frame carrying a newly allocated body.
    pub fn data(m: DataMsg) -> Self {
        WireMsg::Data(Arc::new(m))
    }
}

impl Message for WireMsg {
    fn wire_size(&self) -> usize {
        match self {
            WireMsg::Data(m) => m.wire_size(),
            WireMsg::Gossip(g) => g.wire_size(),
            WireMsg::Request(_) => RequestMsg::WIRE_SIZE,
            WireMsg::FindMissing(_) => FindMissingMsg::WIRE_SIZE,
            WireMsg::Beacon(b) => b.wire_size(),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            WireMsg::Data(_) => MsgKind::Data.label(),
            WireMsg::Gossip(_) => MsgKind::Gossip.label(),
            WireMsg::Request(_) => MsgKind::RequestMsg.label(),
            WireMsg::FindMissing(_) => MsgKind::FindMissingMsg.label(),
            WireMsg::Beacon(_) => MsgKind::Beacon.label(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzcast_crypto::{KeyRegistry, SimScheme};

    fn keys() -> KeyRegistry<SimScheme> {
        KeyRegistry::generate(5, 4)
    }

    #[test]
    fn data_message_signs_and_verifies() {
        let reg = keys();
        let signer = reg.signer(SignerId(1));
        let v = reg.verifier();
        let m = DataMsg::sign(&signer, 7, 100, 512);
        assert_eq!(m.id, MessageId::new(NodeId(1), 7));
        assert!(m.verify(&v));
        assert!(m.gossip_entry().verify(&v));
        assert_eq!(m.ttl, 1);
        assert_eq!(m.with_ttl(2).ttl, 2);
    }

    #[test]
    fn sharing_allocates_only_when_the_ttl_changes() {
        let reg = keys();
        let m = Arc::new(DataMsg::sign(&reg.signer(SignerId(1)), 7, 100, 512));
        let same = DataMsg::share_with_ttl(&m, 1);
        assert!(Arc::ptr_eq(&m, &same));
        let bumped = DataMsg::share_with_ttl(&m, 2);
        assert!(!Arc::ptr_eq(&m, &bumped));
        assert_eq!(*bumped, m.with_ttl(2));
    }

    #[test]
    fn tampering_any_signed_field_breaks_verification() {
        let reg = keys();
        let signer = reg.signer(SignerId(1));
        let v = reg.verifier();
        let m = DataMsg::sign(&signer, 7, 100, 512);
        let mut bad = m;
        bad.payload_id = 101;
        assert!(!bad.verify(&v));
        let mut bad = m;
        bad.payload_len = 513;
        assert!(!bad.verify(&v));
        let mut bad = m;
        bad.id.seq = 8;
        assert!(!bad.verify(&v));
        let mut bad = m;
        bad.id.origin = NodeId(2); // impersonation
        assert!(!bad.verify(&v));
        // TTL is NOT signed (it legitimately changes in flight).
        let bad = m.with_ttl(2);
        assert!(bad.verify(&v));
    }

    #[test]
    fn gossip_entry_tamper_detection() {
        let reg = keys();
        let m = DataMsg::sign(&reg.signer(SignerId(2)), 1, 5, 10);
        let v = reg.verifier();
        let e = m.gossip_entry();
        assert!(e.verify(&v));
        let mut bad = e;
        bad.id.origin = NodeId(3);
        assert!(!bad.verify(&v));
        let mut bad = e;
        bad.id_sig = Signature::zero();
        assert!(!bad.verify(&v));
    }

    #[test]
    fn beacon_signs_lists_and_detects_tampering() {
        let reg = keys();
        let signer = reg.signer(SignerId(0));
        let v = reg.verifier();
        let b = BeaconMsg::sign(
            &signer,
            OverlayRole::Dominator,
            vec![NodeId(1), NodeId(2)],
            vec![NodeId(2)],
            vec![NodeId(3)],
        );
        assert!(b.verify(&v));
        // A tampered beacon keeps the original signature over altered parts.
        let tampered = |sender, role, suspects: Vec<NodeId>| {
            BeaconMsg::from_parts(
                sender,
                role,
                b.marked(),
                b.lists().clone(),
                suspects,
                *b.sig(),
            )
        };
        let bad = tampered(b.sender(), b.role(), vec![NodeId(1)]); // framing a different node
        assert!(!bad.verify(&v));
        let bad = tampered(b.sender(), OverlayRole::Passive, b.suspects().to_vec());
        assert!(!bad.verify(&v));
        let bad = tampered(NodeId(1), b.role(), b.suspects().to_vec());
        assert!(!bad.verify(&v));
        // The same parts with the same signature are the same beacon.
        assert_eq!(tampered(b.sender(), b.role(), b.suspects().to_vec()), b);
    }

    #[test]
    fn wire_sizes_track_contents() {
        let reg = keys();
        let m = DataMsg::sign(&reg.signer(SignerId(0)), 1, 5, 512);
        assert_eq!(WireMsg::data(m).wire_size(), 106 + 512);
        let g = GossipMsg::of_entries(vec![m.gossip_entry(); 3]);
        assert_eq!(WireMsg::Gossip(g.clone()).wire_size(), 3 + 3 * 64);
        // Aggregation is the win: 3 entries in one packet vs 3 packets.
        let single = WireMsg::Gossip(GossipMsg::of_entries(vec![m.gossip_entry()]));
        assert!(g.wire_size() < 3 * single.wire_size());
        // Piggybacked beacons add their own wire size.
        let signer = reg.signer(SignerId(0));
        let b = BeaconMsg::sign(&signer, OverlayRole::Passive, vec![], vec![], vec![]);
        let with_beacon = GossipMsg {
            entries: vec![m.gossip_entry()],
            beacon: Some(b.clone()),
        };
        assert_eq!(with_beacon.wire_size(), 3 + 64 + b.wire_size());
        // A gossip entry is much smaller than the message it announces.
        assert!(GossipEntry::WIRE_SIZE * 4 < WireMsg::data(m).wire_size());
    }

    #[test]
    fn wire_kinds_use_the_fd_labels() {
        let reg = keys();
        let m = DataMsg::sign(&reg.signer(SignerId(3)), 9, 5, 10);
        let entry = m.gossip_entry();
        let gossip = GossipMsg::of_entries(vec![entry]);
        let target = NodeId(1);
        assert_eq!(WireMsg::Gossip(gossip).kind(), "gossip");
        assert_eq!(
            WireMsg::Request(RequestMsg { entry, target }).kind(),
            "request"
        );
        let find = FindMissingMsg {
            entry,
            target,
            ttl: 2,
        };
        assert_eq!(WireMsg::FindMissing(find).kind(), "find_missing");
        assert_eq!(WireMsg::data(m).kind(), "data");
    }
}
