package compress

import (
	"bytes"
	"math/rand"
	"testing"
)

// goldenCorpus is a fixed set of inputs spanning the encoder's regimes:
// empty, tiny, highly repetitive, incompressible, and large enough to force
// code-width growth and a mid-stream dictionary reset.
func goldenCorpus() [][]byte {
	rng := rand.New(rand.NewSource(99))
	rand2 := make([]byte, 3<<20) // forces a 16-bit-code dictionary reset
	rng.Read(rand2)
	mixed := make([]byte, 1<<20)
	for i := range mixed {
		if rng.Float64() > 0.6 {
			mixed[i] = byte(rng.Intn(256))
		}
	}
	return [][]byte{
		nil,
		{},
		[]byte("a"),
		[]byte("abababababababab"),
		[]byte("TOBEORNOTTOBEORTOBEORNOT"),
		bytes.Repeat([]byte{0}, 100000),
		bytes.Repeat([]byte("abcdefgh"), 10000),
		bytes.Repeat([]byte("record0000"), 5000),
		mixed,
		rand2,
	}
}

// TestGoldenBytesVsReference proves the wire format didn't move: the
// optimized encoder must produce byte-identical streams to the frozen seed
// encoder, and both decoders must invert them.
func TestGoldenBytesVsReference(t *testing.T) {
	t.Parallel()
	enc := NewEncoder()
	dec := NewDecoder()
	var dst, out []byte
	for i, src := range goldenCorpus() {
		want := ReferenceCompress(src)
		dst = enc.CompressInto(dst[:0], src)
		if !bytes.Equal(dst, want) {
			t.Fatalf("corpus[%d] (%d bytes): optimized stream differs from seed stream (%d vs %d bytes)",
				i, len(src), len(dst), len(want))
		}
		if got := Compress(src); !bytes.Equal(got, want) {
			t.Fatalf("corpus[%d]: Compress wrapper diverged from seed stream", i)
		}
		var err error
		out, err = dec.DecompressInto(out[:0], dst)
		if err != nil {
			t.Fatalf("corpus[%d]: optimized decode: %v", i, err)
		}
		if !bytes.Equal(out, src) {
			t.Fatalf("corpus[%d]: optimized round trip mismatch", i)
		}
		ref, err := ReferenceDecompress(dst)
		if err != nil || !bytes.Equal(ref, src) {
			t.Fatalf("corpus[%d]: seed decoder rejects optimized stream: %v", i, err)
		}
	}
}

// TestDecoderMatchesReferenceOnGarbage checks accept/reject parity: a
// stream the seed decoder rejects must be rejected by the optimized one and
// vice versa, including truncations of valid streams.
func TestDecoderMatchesReferenceOnGarbage(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	dec := NewDecoder()
	var out []byte
	check := func(stream []byte, label string) {
		t.Helper()
		refOut, refErr := ReferenceDecompress(stream)
		var err error
		out, err = dec.DecompressInto(out[:0], stream)
		if (refErr == nil) != (err == nil) {
			t.Fatalf("%s: seed err=%v, optimized err=%v", label, refErr, err)
		}
		if refErr == nil && !bytes.Equal(out, refOut) {
			t.Fatalf("%s: decoders disagree on output", label)
		}
	}
	valid := Compress(bytes.Repeat([]byte("hello world "), 4000))
	for cut := 0; cut < len(valid); cut += 97 {
		check(valid[:cut], "truncation")
	}
	for i := 0; i < 200; i++ {
		garbage := make([]byte, rng.Intn(64))
		rng.Read(garbage)
		check(garbage, "garbage")
	}
	// Bit flips in a valid stream.
	for i := 0; i < 200; i++ {
		mut := append([]byte(nil), valid...)
		mut[rng.Intn(len(mut))] ^= 1 << rng.Intn(8)
		check(mut, "bitflip")
	}
}

// TestEncoderReuseAcrossCalls checks dictionary state doesn't leak between
// CompressInto calls: every call must start a fresh generation.
func TestEncoderReuseAcrossCalls(t *testing.T) {
	t.Parallel()
	enc := NewEncoder()
	dec := NewDecoder()
	rng := rand.New(rand.NewSource(11))
	var dst, out []byte
	for i := 0; i < 30; i++ {
		src := make([]byte, rng.Intn(200000))
		if i%2 == 0 {
			for j := range src {
				src[j] = byte(rng.Intn(4)) // repetitive
			}
		} else {
			rng.Read(src)
		}
		dst = enc.CompressInto(dst[:0], src)
		if want := ReferenceCompress(src); !bytes.Equal(dst, want) {
			t.Fatalf("call %d: warm encoder stream differs from seed", i)
		}
		var err error
		out, err = dec.DecompressInto(out[:0], dst)
		if err != nil || !bytes.Equal(out, src) {
			t.Fatalf("call %d: warm decoder round trip: %v", i, err)
		}
	}
}

// TestEOFAtWidthBoundary round-trips every input whose last dictionary
// entry lands one below a code-width boundary (511, 1023, ... 32767), where
// the decoder reads EOF one bit wider than the old encoder wrote it.
func TestEOFAtWidthBoundary(t *testing.T) {
	t.Parallel()
	src := make([]byte, 1<<17)
	rand.New(rand.NewSource(5)).Read(src)
	// Replay the encoder's parse: when an insertion brings next to a
	// target, the prefix through that byte ends on a one-byte final code
	// with exactly that dictionary size.
	dict := make(map[uint32]uint32)
	next := uint32(firstCode)
	cur := uint32(src[0])
	bits := uint(minBits)
	for i, b := range src[1:] {
		key := cur<<8 | uint32(b)
		if code, ok := dict[key]; ok {
			cur = code
			continue
		}
		dict[key] = next
		next++
		cur = uint32(b)
		if next != 1<<bits-1 {
			continue
		}
		in := src[:i+2]
		stream := Compress(in)
		if want := ReferenceCompress(in); !bytes.Equal(stream, want) {
			t.Fatalf("%d-bit boundary: stream differs from the reference encoder", bits)
		}
		if got, err := Decompress(stream); err != nil || !bytes.Equal(got, in) {
			t.Fatalf("%d-bit boundary (%d bytes): %v", bits, len(in), err)
		}
		if got, err := ReferenceDecompress(stream); err != nil || !bytes.Equal(got, in) {
			t.Fatalf("%d-bit boundary (%d bytes): reference decoder: %v", bits, len(in), err)
		}
		if bits++; bits == maxBits {
			return
		}
	}
	t.Fatalf("corpus too short: reached only the %d-bit boundary", bits)
}

// TestCompressIntoSteadyStateAllocFree is the 0 allocs/op gate for the
// steady-state compression path (warm codec, pre-sized scratch).
func TestCompressIntoSteadyStateAllocFree(t *testing.T) {
	if BorrowSanitizerEnabled() {
		t.Skip("borrow-sanitizer forces fresh allocations by design")
	}
	rng := rand.New(rand.NewSource(21))
	src := make([]byte, 256<<10)
	for i := range src {
		if rng.Float64() > 0.6 {
			src[i] = byte(rng.Intn(256))
		}
	}
	enc := NewEncoder()
	dec := NewDecoder()
	dst := enc.CompressInto(nil, src)
	out, err := dec.DecompressInto(nil, dst)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(10, func() {
		dst = enc.CompressInto(dst[:0], src)
	}); a != 0 {
		t.Errorf("CompressInto steady state: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() {
		out, err = dec.DecompressInto(out[:0], dst)
		if err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("DecompressInto steady state: %v allocs/op, want 0", a)
	}
	if !bytes.Equal(out, src) {
		t.Fatal("round trip mismatch")
	}
}

// FuzzLZWRoundTrip fuzzes the optimized codec against itself and against
// the frozen seed implementation: the compressed stream must be
// byte-identical to the seed encoder's, and decompression must invert it.
func FuzzLZWRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("a"))
	f.Add([]byte("TOBEORNOTTOBEORTOBEORNOT"))
	f.Add(bytes.Repeat([]byte("abcdefgh"), 1000))
	f.Add(bytes.Repeat([]byte{0}, 5000))
	rng := rand.New(rand.NewSource(8))
	noise := make([]byte, 4096)
	rng.Read(noise)
	f.Add(noise)
	enc := NewEncoder()
	dec := NewDecoder()
	f.Fuzz(func(t *testing.T, src []byte) {
		stream := enc.CompressInto(nil, src)
		if want := ReferenceCompress(src); !bytes.Equal(stream, want) {
			t.Fatalf("stream differs from seed encoder (%d vs %d bytes)", len(stream), len(want))
		}
		got, err := dec.DecompressInto(nil, stream)
		if err != nil {
			t.Fatalf("decode of own stream: %v", err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("round trip mismatch: %d in, %d out", len(src), len(got))
		}
	})
}

func BenchmarkCompressInto(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	src := make([]byte, 1<<20)
	for i := range src {
		if rng.Float64() > 0.6 {
			src[i] = byte(rng.Intn(256))
		}
	}
	enc := NewEncoder()
	dst := enc.CompressInto(nil, src)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = enc.CompressInto(dst[:0], src)
	}
}

func BenchmarkDecompressInto(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	src := make([]byte, 1<<20)
	for i := range src {
		if rng.Float64() > 0.6 {
			src[i] = byte(rng.Intn(256))
		}
	}
	stream := Compress(src)
	dec := NewDecoder()
	out, err := dec.DecompressInto(nil, stream)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err = dec.DecompressInto(out[:0], stream)
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = out
}

func BenchmarkReferenceCompress(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	src := make([]byte, 1<<20)
	for i := range src {
		if rng.Float64() > 0.6 {
			src[i] = byte(rng.Intn(256))
		}
	}
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReferenceCompress(src)
	}
}
