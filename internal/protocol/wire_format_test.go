package protocol

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"sync"
	"testing"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/transport"
)

// sniffConn wraps a transport endpoint and records a copy of every payload
// it sends, so tests can assert which frame format actually hit the wire.
type sniffConn struct {
	transport.Conn
	mu   sync.Mutex
	sent [][]byte
}

func (c *sniffConn) Send(ctx context.Context, to string, payload []byte) error {
	c.mu.Lock()
	c.sent = append(c.sent, append([]byte(nil), payload...))
	c.mu.Unlock()
	return c.Conn.Send(ctx, to, payload)
}

// TestFloat32BatchNegotiation checks the float32 payload mode end to end. A
// float32 client packs its very first frame (the sender's own choice; no
// exchange with the service precedes it), and its labels equal those a
// float64 client gets for the same batch.
func TestFloat32BatchNegotiation(t *testing.T) {
	net := transport.NewMemNetwork()
	svcConn, _ := net.Endpoint("svc")
	defer svcConn.Close()
	raw32, _ := net.Endpoint("client32")
	conn32 := &sniffConn{Conn: raw32}
	defer conn32.Close()
	raw64, _ := net.Endpoint("client64")
	conn64 := &sniffConn{Conn: raw64}
	defer conn64.Close()

	// Wide records with full-entropy mantissas, as perturbed data has: gob
	// suppresses trailing zero bytes of a float64, so only realistic values
	// show the packed form's halved width through the gob overhead.
	n, dim := 16, 8
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		x[i] = make([]float64, dim)
		for j := range x[i] {
			x[i][j] = (float64(i) + 1) / (float64(j)*3.1415926535 + 1.7320508)
		}
		y[i] = i
	}
	wide, err := dataset.New("wide-line", x, y)
	if err != nil {
		t.Fatal(err)
	}
	_, stop := startGroupedService(t, svcConn, []GroupSpec{{
		ID: "alpha", Unified: wide, Model: classify.NewKNN(1)}},
		ServiceConfig{})
	defer stop()

	ctx := testCtx(t)
	classifyOnce := func(conn transport.Conn, o WireOptions) []int {
		t.Helper()
		client, err := NewGroupServiceClient(conn, "svc", "alpha")
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		client.SetWireOptions(o)
		labels, err := client.ClassifyBatch(ctx, x)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		return labels
	}
	labels32 := classifyOnce(conn32, WireOptions{Float32: true})
	labels64 := classifyOnce(conn64, WireOptions{})
	for i := range labels64 {
		if labels32[i] != labels64[i] || labels64[i] != i {
			t.Fatalf("record %d: float32 label %d, float64 label %d, want %d", i, labels32[i], labels64[i], i)
		}
	}

	if len(conn32.sent) != 1 || len(conn64.sent) != 1 {
		t.Fatalf("recorded %d float32 and %d float64 frames, want 1 each", len(conn32.sent), len(conn64.sent))
	}
	first := conn32.sent[0]
	var w serviceWire
	if err := gob.NewDecoder(bytes.NewReader(first[2:])).Decode(&w); err != nil {
		t.Fatal(err)
	}
	if len(w.Batch32) == 0 || w.Dim != dim || len(w.Batch) != 0 {
		t.Fatalf("first float32 frame carries %d packed bytes (dim %d) and %d float64 rows, want a packed batch",
			len(w.Batch32), w.Dim, len(w.Batch))
	}
	if len(first) >= len(conn64.sent[0]) {
		t.Fatalf("float32 frame (%d bytes) is not smaller than the float64 frame (%d bytes)",
			len(first), len(conn64.sent[0]))
	}
}

// TestModelSyncPayloadReduction pins the float32 replication saving: a
// model-sync frame carrying a float32 blob is at most 3/5 of the bytes of
// the float64 frame. Packing halves the feature matrix; on these 4-feature
// records the labels and the frame header make up the rest.
func TestModelSyncPayloadReduction(t *testing.T) {
	d := labelledLine(t, 512)
	// Widen the records so the payload is dominated by feature floats, as
	// real perturbed datasets are.
	wide := make([][]float64, d.Len())
	for i := range wide {
		wide[i] = []float64{d.X[i][0], d.X[i][0] * 0.7311, d.X[i][0] * 1.618, d.X[i][0] * 2.718}
	}
	wd, err := dataset.New("wide", wide, d.Y)
	if err != nil {
		t.Fatal(err)
	}
	model := classify.NewKNN(1)
	if err := model.Fit(wd); err != nil {
		t.Fatal(err)
	}

	plainBlob, err := classify.EncodeModel(model)
	if err != nil {
		t.Fatal(err)
	}
	packedBlob, err := classify.EncodeModelFloat32(model)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := encodeServiceWire(&serviceWire{
		Kind: kindModelSync, Group: "alpha", Seq: 1, Model: plainBlob})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := encodeServiceWire(&serviceWire{
		Kind: kindModelSync, Group: "alpha", Seq: 1, Model: packedBlob})
	if err != nil {
		t.Fatal(err)
	}
	if len(packed)*5 > len(plain)*3 {
		t.Fatalf("float32 sync frame is %d bytes vs %d plain — more than 3/5",
			len(packed), len(plain))
	}

	// The packed frame still round-trips into a model that classifies.
	w, err := decodeServiceWire(packed)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := classify.DecodeModel(w.Model)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decoded.Predict(wide[3])
	if err != nil {
		t.Fatal(err)
	}
	if got != wd.Y[3] {
		t.Fatalf("decoded float32 model classified record 3 as %d, want %d", got, wd.Y[3])
	}
}

// TestEncodeServiceFrameRetrySafe checks the float32 packer never mutates
// the caller's frame: retry loops re-encode the same *serviceWire, so the
// original Batch must survive an earlier packed encoding.
func TestEncodeServiceFrameRetrySafe(t *testing.T) {
	w := &serviceWire{ID: 1, Group: "alpha", Batch: [][]float64{{0.25, 0.5}, {0.75, 1.0}}}
	first, err := encodeServiceFrame(w, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Batch) != 2 || w.Batch32 != nil {
		t.Fatalf("encode mutated the caller's frame: %+v", w)
	}
	second, err := encodeServiceFrame(w, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("re-encoding the same frame produced different bytes")
	}
}

// TestEveryFrameKindOneLayout encodes one frame of every kind, request and
// response, plain and float32-packed, and checks the single service layout:
// the magic byte, ServiceWireVersion, then a gob body that decodes back to
// the frame. The same body under every other version byte decodes to
// ErrWireVersion with the frame ID echoed.
func TestEveryFrameKindOneLayout(t *testing.T) {
	batch := [][]float64{{0.25, 0.5}, {0.75, 1.0}}
	for kind := kindClassify; kind <= kindAdminList; kind++ {
		for _, f32 := range []bool{false, true} {
			for _, response := range []bool{false, true} {
				w := &serviceWire{ID: 40 + uint64(kind), Kind: kind, Group: "alpha",
					Batch: batch, Response: response}
				payload, err := encodeServiceFrame(w, f32)
				if err != nil {
					t.Fatalf("kind %d: %v", kind, err)
				}
				if payload[0] != 0x53 || payload[1] != 9 {
					t.Fatalf("kind %d f32=%v: header % x, want 53 09", kind, f32, payload[:2])
				}
				var body serviceWire
				if err := gob.NewDecoder(bytes.NewReader(payload[2:])).Decode(&body); err != nil {
					t.Fatalf("kind %d f32=%v: body is not gob: %v", kind, f32, err)
				}
				got, err := decodeServiceWire(payload)
				if err != nil || got.ID != w.ID || got.Kind != kind || got.Response != response || len(got.Batch) != len(batch) {
					t.Fatalf("kind %d f32=%v: decoded (%+v, %v)", kind, f32, got, err)
				}
				for v := 0; v < 256; v++ {
					if v == ServiceWireVersion {
						continue
					}
					bad := append([]byte(nil), payload...)
					bad[1] = byte(v)
					got, err := decodeServiceWire(bad)
					if !errors.Is(err, ErrWireVersion) {
						t.Fatalf("kind %d under v%d: err = %v, want ErrWireVersion", kind, v, err)
					}
					if got == nil || got.ID != w.ID {
						t.Fatalf("kind %d under v%d: frame ID not echoed (%+v)", kind, v, got)
					}
				}
			}
		}
	}
}
