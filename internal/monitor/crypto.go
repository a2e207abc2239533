// Package monitor implements the paper's NPU Monitor (§IV-C, §V): the
// only NPU-related software in the TCB. It runs in the secure world
// (behind a PMP-protected domain in the prototype) and provides the
// shim modules — context setter, trusted allocator, code verifier,
// secure loader — plus the trampoline protocol that untrusted driver
// code uses to reach it, and the secure task queue.
package monitor

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"fmt"
	"io"
)

// The largest body of monitor code in the paper is cryptography (model
// decryption and code-integrity measurement). We use the stdlib's
// AES-256-GCM for sealing and SHA-256 for measurement; the key is
// provisioned by the model owner over the attested channel that secure
// boot's Root-of-Trust report establishes (simulated by handing the
// key to the monitor directly).

// KeySize is the sealing key size (AES-256).
const KeySize = 32

// SealModel encrypts a model blob under the owner's key, producing
// nonce||ciphertext. It is the *user-side* helper: the owner runs this
// before shipping the model to the untrusted driver.
func SealModel(key []byte, model []byte) ([]byte, error) {
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, fmt.Errorf("monitor: nonce: %w", err)
	}
	return append(nonce, gcm.Seal(nil, nonce, model, nil)...), nil
}

// OpenModel decrypts a sealed model inside the monitor. Tampered
// ciphertext fails authentication.
func OpenModel(key []byte, sealed []byte) ([]byte, error) {
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	if len(sealed) < gcm.NonceSize() {
		return nil, fmt.Errorf("monitor: sealed blob too short")
	}
	nonce, ct := sealed[:gcm.NonceSize()], sealed[gcm.NonceSize():]
	pt, err := gcm.Open(nil, nonce, ct, nil)
	if err != nil {
		return nil, fmt.Errorf("monitor: model decryption failed: %w", err)
	}
	return pt, nil
}

func newGCM(key []byte) (cipher.AEAD, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("monitor: key must be %d bytes, got %d", KeySize, len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}
