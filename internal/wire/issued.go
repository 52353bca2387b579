package wire

// Issued-log and attestation-replication messages. IssuedRecord is the
// on-disk frame of the durable issued-proof log: every attestation a node
// makes (and every withdrawal) is one hash-chained record, re-read after
// a crash, so the strict-decode discipline applies exactly as it does for
// job journal records. AttestationUpdate crosses the unauthenticated
// cluster HTTP surface (node → coordinator → replicas), so bounded
// lengths and no trailing bytes apply there too.

// Issued-log record kinds. An add attests a digest (with the CRS tag the
// issuing epoch used, 0 for untagged kinds); a tombstone withdraws one —
// the reaper's "remove" is an append, never an in-place delete, so the
// log stays append-only and the chain stays verifiable.
const (
	IssuedAdd       byte = 0
	IssuedTombstone byte = 1
)

const maxIssuedKind = IssuedTombstone

// maxIssuedSeq bounds the record sequence number. The log compacts long
// before this; a sequence beyond it is corruption, not history.
const maxIssuedSeq = maxStatInt

// maxAttestationDigests bounds one replication update. Updates are sent
// per response (a batch prove adds at most maxBatch digests), so a large
// count is an attack, not a workload.
const maxAttestationDigests = 1 << 12

// IssuedRecord is one entry of the durable issued-proof log. Prev is the
// hash chain up to the previous record (seeded from a fixed label, not a
// per-file identity — the log has exactly one chain), so a log read back
// from disk proves its own integrity and a torn or tampered suffix is
// truncated instead of trusted. Digest is the attestation itself — the
// sha256 the verify handlers look up. CRSTag is always 0 in records
// written now; older logs carry non-zero tags on epoch-proof records,
// and the hash chain covers them, so the field stays.
type IssuedRecord struct {
	Seq    int64
	Kind   byte
	Prev   [32]byte
	Digest [32]byte
	CRSTag uint64
}

// EncodeIssuedRecord serializes one issued-log entry.
func EncodeIssuedRecord(r *IssuedRecord) []byte {
	e := newEnc(TagIssuedRecord)
	e.u64(uint64(r.Seq))
	e.u8(r.Kind)
	e.hash32(&r.Prev)
	e.hash32(&r.Digest)
	e.u64(r.CRSTag)
	return e.buf
}

// DecodeIssuedRecord parses one issued-log entry.
func DecodeIssuedRecord(b []byte) (*IssuedRecord, error) {
	return decode(b, TagIssuedRecord, func(d *dec) *IssuedRecord {
		r := &IssuedRecord{}
		r.Seq = d.u64max("issued sequence", maxIssuedSeq)
		r.Kind = d.u8max("issued record kind", maxIssuedKind)
		r.Prev = d.hash32()
		r.Digest = d.hash32()
		r.CRSTag = d.u64()
		return r
	})
}

// AttestationUpdate replicates attestation digests across the cluster:
// the issuing node posts it to the coordinator, which fans it out to the
// digest's replica set, so a verify request can be vouched for by a
// surviving replica after the issuer dies. The digest alone binds the
// exact issued bytes.
type AttestationUpdate struct {
	Node    string
	Added   [][32]byte
	Removed [][32]byte
}

// EncodeAttestationUpdate serializes a replication update.
func EncodeAttestationUpdate(u *AttestationUpdate) []byte {
	e := newEnc(TagAttestationUpdate)
	e.str(u.Node)
	e.hashes(u.Added)
	e.hashes(u.Removed)
	return e.buf
}

// DecodeAttestationUpdate parses a replication update. Node must be
// non-empty (the coordinator excludes the sender from the replica set by
// name), and an update must carry at least one digest — an empty update
// is a protocol error, not a keep-alive.
func DecodeAttestationUpdate(b []byte) (*AttestationUpdate, error) {
	return decode(b, TagAttestationUpdate, func(d *dec) *AttestationUpdate {
		u := &AttestationUpdate{}
		u.Node = d.strNonEmpty("attesting node")
		u.Added = d.hashes("added attestations", maxAttestationDigests)
		u.Removed = d.hashes("removed attestations", maxAttestationDigests)
		if len(u.Added)+len(u.Removed) == 0 {
			d.fail("empty attestation update")
		}
		return u
	})
}
