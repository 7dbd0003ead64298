package luks

import (
	"sync/atomic"

	"bolted/internal/obs"
)

// sealMetrics are the package-wide data-plane instruments. Volumes are
// created and destroyed constantly (one per node disk), so the
// instruments live at package level rather than per volume; the enclave
// label would be pure cardinality with no extra signal — every volume
// runs the same XTS path.
type sealMetrics struct {
	sealedBytes   *obs.Counter   // plaintext bytes through EncryptSectors
	unsealedBytes *obs.Counter   // ciphertext bytes through DecryptSectors
	batchSectors  *obs.Histogram // sectors per cryptSpan call
}

var zeroSealMetrics sealMetrics

var sealM atomic.Pointer[sealMetrics]

// SetMetrics attaches the package's sealing instruments to a registry.
// Safe to call at any time (the swap is atomic), but counters only cover
// traffic after the call.
func SetMetrics(reg *obs.Registry) {
	sealM.Store(&sealMetrics{
		sealedBytes: reg.Counter("bolted_luks_sealed_bytes_total",
			"Plaintext bytes sealed (encrypted) through the XTS data plane."),
		unsealedBytes: reg.Counter("bolted_luks_unsealed_bytes_total",
			"Ciphertext bytes unsealed (decrypted) through the XTS data plane."),
		batchSectors: reg.Histogram("bolted_luks_batch_sectors",
			"Sectors per sealing span (one EncryptSectors or DecryptSectors call).",
			obs.DefCountBuckets),
	})
}

func sealMetricsNow() *sealMetrics {
	if p := sealM.Load(); p != nil {
		return p
	}
	return &zeroSealMetrics
}
