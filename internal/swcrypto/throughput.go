package swcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"fmt"
	"time"

	"hccsim/internal/units"
)

// Algorithm identifies one of the cryptographic primitives evaluated by the
// paper's Fig. 4b.
type Algorithm string

// Algorithms on the CC copy path or considered as alternatives.
const (
	AES128GCM Algorithm = "aes-128-gcm" // what H100 CC actually uses on PCIe
	AES256GCM Algorithm = "aes-256-gcm"
	AES128XTS Algorithm = "aes-128-xts" // TME-MK's mode
	AES256XTS Algorithm = "aes-256-xts"
	GHASHAlg  Algorithm = "ghash" // integrity-only building block of GMAC
	GMACAlg   Algorithm = "gmac"
	SHA256Alg Algorithm = "sha-256"
	// ChaCha20Poly1305 is the AES-free AEAD alternative (this package's
	// own RFC 8439 implementation backs the local measurement).
	ChaCha20Poly1305 Algorithm = "chacha20-poly1305"
)

// AllAlgorithms lists every algorithm in Fig. 4b display order.
var AllAlgorithms = []Algorithm{
	AES128GCM, AES256GCM, AES128XTS, AES256XTS, GHASHAlg, GMACAlg,
	ChaCha20Poly1305, SHA256Alg,
}

// Clock is the time source behind Measure, injectable so the measurement
// loop itself is testable with a deterministic fake. Production callers
// use Measure, which supplies the real wall clock.
type Clock func() time.Time

// Measure runs the algorithm over bufSize-byte buffers on the local machine
// for roughly the given wall-clock budget and returns the achieved
// single-goroutine throughput in GB/s. This is a real measurement (the Go
// runtime uses AES-NI/CLMUL where available) and backs the "measured"
// column of the Fig. 4b reproduction.
//
// Measure* is the project's one sanctioned wall-clock boundary: the
// nondeterminism analyzer (internal/analysis) forbids time.Now elsewhere in
// deterministic packages, figures built on Measure are never cached (figures
// are not batch jobs), and everything downstream (SoftCrypto, the calibration tables) is pure.
func Measure(alg Algorithm, bufSize int, budget time.Duration) (float64, error) {
	return MeasureWithClock(alg, bufSize, budget, time.Now)
}

// MeasureWithClock is Measure with an explicit time source.
func MeasureWithClock(alg Algorithm, bufSize int, budget time.Duration, now Clock) (float64, error) {
	if bufSize < 16 {
		return 0, fmt.Errorf("swcrypto: buffer must be >= 16 bytes")
	}
	step, err := stepFunc(alg, bufSize)
	if err != nil {
		return 0, err
	}
	// Warm up once, then time batches until the budget is spent.
	step()
	var processed int64
	start := now()
	for now().Sub(start) < budget {
		for i := 0; i < 8; i++ {
			step()
			processed += int64(bufSize)
		}
	}
	elapsed := now().Sub(start).Seconds()
	if elapsed <= 0 {
		return 0, fmt.Errorf("swcrypto: zero elapsed time")
	}
	return float64(processed) / elapsed / 1e9, nil
}

// stepFunc builds a closure that processes one buffer with the algorithm.
func stepFunc(alg Algorithm, bufSize int) (func(), error) {
	src := make([]byte, bufSize)
	for i := range src {
		src[i] = byte(i * 131)
	}
	key16 := make([]byte, 16)
	key32 := make([]byte, 32)
	key64 := make([]byte, 64)
	nonce := make([]byte, 12)
	switch alg {
	case AES128GCM, AES256GCM:
		key := key16
		if alg == AES256GCM {
			key = key32
		}
		block, err := aes.NewCipher(key)
		if err != nil {
			return nil, err
		}
		aead, err := cipher.NewGCM(block)
		if err != nil {
			return nil, err
		}
		dst := make([]byte, 0, bufSize+aead.Overhead())
		return func() { aead.Seal(dst[:0], nonce, src, nil) }, nil
	case AES128XTS, AES256XTS:
		key := key32
		if alg == AES256XTS {
			key = key64
		}
		x, err := NewXTS(key)
		if err != nil {
			return nil, err
		}
		dst := make([]byte, bufSize)
		return func() { _ = x.Encrypt(dst, src, 1) }, nil
	case GHASHAlg:
		h := make([]byte, 16)
		h[0] = 0x42
		return func() { GHASH(h, nil, src) }, nil
	case GMACAlg:
		return func() { _, _ = GMAC(key16, nonce, src) }, nil
	case SHA256Alg:
		return func() { sha256.Sum256(src) }, nil
	case ChaCha20Poly1305:
		var key [32]byte
		var nonce [12]byte
		return func() { _, _ = ChaCha20Poly1305Seal(&key, &nonce, src, nil) }, nil
	default:
		return nil, fmt.Errorf("swcrypto: unknown algorithm %q", alg)
	}
}

// CPUModel identifies a calibrated CPU in the throughput table.
type CPUModel string

// The two CPUs the paper measures in Fig. 4b.
const (
	IntelEMR    CPUModel = "intel-emr"    // 5th Gen Xeon 6530 Gold @ 2.1 GHz
	NVIDIAGrace CPUModel = "nvidia-grace" // Grace Neoverse V2 @ 3.4 GHz
)

// CalibratedGBps holds single-core throughput (GB/s) calibrated to the
// paper's Fig. 4b. The anchor points stated in the text are exact: AES-128-
// GCM on EMR reaches 3.36 GB/s and GHASH up to 8.9 GB/s. Remaining entries
// are proportioned from typical AES-NI / ARMv8-CE cycle-per-byte figures at
// each part's clock.
var CalibratedGBps = map[CPUModel]map[Algorithm]float64{
	IntelEMR: {
		AES128GCM: 3.36,
		AES256GCM: 2.74,
		AES128XTS: 4.12,
		AES256XTS: 3.35,
		GHASHAlg:  8.90,
		GMACAlg:   7.61,
		SHA256Alg: 1.93,
		// Without AES-NI's advantage, ChaCha20 lands below AES-GCM on x86
		// server cores.
		ChaCha20Poly1305: 2.35,
	},
	NVIDIAGrace: {
		AES128GCM:        4.21,
		AES256GCM:        3.47,
		AES128XTS:        5.05,
		AES256XTS:        4.18,
		GHASHAlg:         10.6,
		GMACAlg:          9.02,
		SHA256Alg:        6.44, // Grace has dedicated SHA-256 instructions
		ChaCha20Poly1305: 3.10,
	},
}

// SoftCrypto models the latency of software (de)cryption on the CC copy
// path: a fixed per-call setup cost plus a bandwidth-limited streaming term.
// It is deliberately simple — the paper shows the copy path is throughput-
// bound by exactly this single-threaded stage.
type SoftCrypto struct {
	Algorithm      Algorithm
	ThroughputGBps float64       // streaming rate for large buffers
	PerCall        time.Duration // key schedule, IV setup, tag finalize
}

// NewSoftCrypto returns the calibrated model for alg on cpu. Models are
// memoized per (cpu, alg) — every simulated system with the same platform
// shares one immutable instance, so sweeps do not re-derive (or
// re-allocate) the calibration per job.
func NewSoftCrypto(cpu CPUModel, alg Algorithm) (*SoftCrypto, error) {
	return lookupCalibrated(cpu, alg, func() (*SoftCrypto, error) {
		table, ok := CalibratedGBps[cpu]
		if !ok {
			return nil, fmt.Errorf("swcrypto: unknown CPU model %q", cpu)
		}
		gbps, ok := table[alg]
		if !ok {
			return nil, fmt.Errorf("swcrypto: no calibration for %q on %q", alg, cpu)
		}
		return &SoftCrypto{Algorithm: alg, ThroughputGBps: gbps, PerCall: 950 * time.Nanosecond}, nil
	})
}

// Time returns the modelled duration to encrypt (or decrypt) n bytes.
func (s *SoftCrypto) Time(n int64) time.Duration {
	if n <= 0 {
		return s.PerCall
	}
	return s.PerCall + units.StreamDuration(n, s.ThroughputGBps)
}

// EffectiveGBps returns the achieved rate for n-byte calls, including the
// per-call overhead — this is what bounds CC PCIe bandwidth in Fig. 4a.
func (s *SoftCrypto) EffectiveGBps(n int64) float64 {
	d := s.Time(n)
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds() / 1e9
}
