package snmp

import (
	"crypto/sha256"
	"encoding/hex"
)

// Digest returns a deterministic content hash of the configuration: the
// hex SHA-256 of its canonical wire form, the bytes MarshalConfig returns
// (appendConfig writes community names sorted, and view lists are kept
// ordered by the generator, so two semantically identical configurations
// digest identically).
//
// Digests are the identity the transactional rollout machinery reasons
// with: the journal records the digest planned for each target, resume
// skips targets whose installed digest already matches, and the drift
// reconciler compares a live agent's digest against the model's. A nil
// configuration digests to "".
func (c *Config) Digest() string {
	if c == nil {
		return ""
	}
	var scratch [512]byte
	return BlobDigest(appendConfig(scratch[:0], c))
}

// BlobDigest returns the digest of a configuration MarshalConfig has
// already written: BlobDigest(MarshalConfig(c)) == c.Digest() for every
// non-nil c, without marshaling c a second time.
func BlobDigest(blob []byte) string {
	sum := sha256.Sum256(blob)
	var digest [2 * sha256.Size]byte
	hex.Encode(digest[:], sum[:])
	return string(digest[:])
}
