package protocol

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeFrame hardens service wire-frame decoding against arbitrary
// payloads: real frames of every kind (float32-packed batches, cluster admin
// and multi-level trust-view frames included) under the current version and
// under every older version byte, truncated and bit-flipped frames, and
// plain garbage. The decoder must never panic and must keep its contract — a
// typed ErrWireVersion for any version byte but ServiceWireVersion, nil/nil
// for non-service payloads, and re-encodable frames on success.
func FuzzDecodeFrame(f *testing.F) {
	// Corpus: real encoded frames of each kind, restamped to a version byte.
	seed := func(w *serviceWire, version byte) []byte {
		payload, err := encodeServiceWire(w)
		if err != nil {
			f.Fatal(err)
		}
		payload[1] = version
		return payload
	}
	classify := &serviceWire{ID: 7, Group: "alpha", Batch: [][]float64{{0.25, 0.5}, {0.75, 1.0}}}
	ingest := &serviceWire{ID: 9, Kind: kindIngest, Group: "beta",
		Batch: [][]float64{{0.1}}, Labels: []int{3}}
	response := &serviceWire{ID: 7, Response: true, Labels: []int{1, 2}}
	rejection := &serviceWire{ID: 7, Response: true, Code: codeUnknownGroup, Err: `no serving group "x"`}
	routesReq := &serviceWire{ID: 11, Kind: kindRoutes}
	routesResp := &serviceWire{ID: 11, Kind: kindRoutes, Response: true,
		Routes: []RouteEntry{{Group: "alpha", Node: "n1", Replicas: []string{"n2", "n3"}}, {Group: "beta", Node: "n2"}}}
	modelSync := &serviceWire{Kind: kindModelSync, Group: "alpha", Seq: 4,
		Model: []byte{'C', 0xde, 0xad, 0xbe, 0xef}}
	notLeader := &serviceWire{ID: 13, Kind: kindIngest, Group: "alpha", Response: true,
		Code: codeNotLeader, Err: `group "alpha" is a read replica synced from "n1"`}
	// The v8 admin control plane, request and response shapes.
	adminRegister := &serviceWire{ID: 17, Kind: kindAdminRegister, Group: "gamma",
		Token: "tok", Spec: &AdminGroupSpec{ID: "gamma", X: [][]float64{{0.5}}, Y: []int{1},
			Model: []byte{'K', 0x01, 0x02}, Quota: GroupQuota{RecordsPerSec: 10, Burst: 20}}}
	adminEvict := &serviceWire{ID: 18, Kind: kindAdminEvict, Group: "gamma", Token: "tok"}
	adminUpdate := &serviceWire{ID: 19, Kind: kindAdminUpdate, Group: "gamma", Token: "tok",
		Update: &AdminUpdate{SetQuota: true, Quota: GroupQuota{RecordsPerSec: 5}, SetMembers: true, Members: []string{"dp1"}}}
	adminList := &serviceWire{ID: 20, Kind: kindAdminList, Token: "tok"}
	adminBadToken := &serviceWire{ID: 21, Kind: kindAdminList, Token: "not-the-token"}
	adminDenied := &serviceWire{ID: 21, Kind: kindAdminList, Response: true,
		Code: codeAdminDenied, Err: "bad admin token"}
	adminInfos := &serviceWire{ID: 20, Kind: kindAdminList, Response: true,
		Infos: []AdminGroupInfo{{ID: "gamma", Workers: 2, MaxBatch: 64,
			Quota: GroupQuota{RecordsPerSec: 10}, Ingested: 7}}}
	quotaReject := &serviceWire{ID: 22, Kind: kindIngest, Group: "gamma", Response: true,
		Code: codeQuota, Err: `group "gamma" ingest quota exhausted`}
	// The multi-level trust surface (View rides the existing formats as a
	// gob field, omitted when zero): view-stamped requests, per-view
	// replication frames, view-carrying admin registrations and the typed
	// unknown-view rejection.
	viewClassify := &serviceWire{ID: 23, Group: "alpha", View: 2,
		Batch: [][]float64{{0.25, 0.5}}}
	viewIngest := &serviceWire{ID: 24, Kind: kindIngest, Group: "alpha", View: 3,
		Batch: [][]float64{{0.1}}, Labels: []int{1}}
	viewSync := &serviceWire{Kind: kindModelSync, Group: "alpha", View: 2, Seq: 6,
		Model: []byte{'K', 0x03, 0x04}}
	viewRegister := &serviceWire{ID: 25, Kind: kindAdminRegister, Group: "delta",
		Token: "tok", Spec: &AdminGroupSpec{ID: "delta", X: [][]float64{{0.5}}, Y: []int{1},
			Views: []AdminViewSpec{
				{Level: 1, NoiseSigma: 0, Model: []byte{'K', 0x05}, Members: []string{"analyst"}},
				{Level: 2, NoiseSigma: 0.3, Model: []byte{'K', 0x06}},
			}}}
	unknownView := &serviceWire{ID: 23, Response: true,
		Code: codeUnknownView, Err: `group "alpha" serves no view 9`}
	packed := func(w *serviceWire) []byte {
		payload, err := encodeServiceFrame(w, true)
		if err != nil {
			f.Fatal(err)
		}
		return payload
	}
	for _, w := range []*serviceWire{classify, ingest, response, rejection,
		routesReq, routesResp, modelSync, notLeader,
		adminRegister, adminEvict, adminUpdate, adminList, adminBadToken,
		adminDenied, adminInfos, quotaReject,
		viewClassify, viewIngest, viewSync, viewRegister, unknownView} {
		// A valid body under each retired version byte: all rejected.
		for version := byte(1); version < ServiceWireVersion; version++ {
			f.Add(seed(w, version))
		}
		f.Add(seed(w, ServiceWireVersion))
		f.Add(packed(w))
	}
	full := seed(classify, ServiceWireVersion)
	f.Add(full[:2])                                                   // header only
	f.Add(full[:len(full)/2])                                         // truncated mid-gob
	f.Add(seed(classify, 0))                                          // version 0
	f.Add(seed(classify, 99))                                         // far-future version
	f.Add([]byte{})                                                   // empty
	f.Add([]byte{serviceMagic})                                       // magic alone
	f.Add([]byte("not a service frame"))                              // foreign payload
	f.Add(bytes.Repeat([]byte{serviceMagic, ServiceWireVersion}, 64)) // garbage gob body
	torn := packed(classify)
	f.Add(torn[:len(torn)-3]) // float32 batch cut short
	regFrame := seed(adminRegister, ServiceWireVersion)
	f.Add(regFrame[:len(regFrame)/2]) // truncated admin register
	f.Add(regFrame[:len(regFrame)-1]) // admin register missing a byte
	viewFrame := seed(viewRegister, ServiceWireVersion)
	f.Add(viewFrame[:len(viewFrame)/2]) // truncated mid view list
	f.Add(viewFrame[:len(viewFrame)-1]) // view register missing a byte

	f.Fuzz(func(t *testing.T, payload []byte) {
		w, err := decodeServiceWire(payload)

		// Non-service payloads are silently ignored, never errored.
		if !IsServiceFrame(payload) {
			if w != nil || err != nil {
				t.Fatalf("non-service payload decoded to (%+v, %v)", w, err)
			}
			return
		}
		version := payload[1]
		supported := version == ServiceWireVersion
		switch {
		case err == nil:
			// A clean decode must come from a spoken version, yield a
			// frame, and survive a re-encode round trip.
			if w == nil {
				t.Fatal("nil frame with nil error for a service payload")
			}
			if !supported {
				t.Fatalf("v%d decoded without a version error", version)
			}
			reencoded, encErr := encodeServiceWire(w)
			if encErr != nil {
				t.Fatalf("decoded frame does not re-encode: %v", encErr)
			}
			w2, decErr := decodeServiceWire(reencoded)
			if decErr != nil || w2 == nil {
				t.Fatalf("re-encoded frame does not decode: %v", decErr)
			}
			if w2.ID != w.ID || w2.Kind != w.Kind || w2.Group != w.Group ||
				w2.View != w.View ||
				w2.Code != w.Code || w2.Response != w.Response || w2.Seq != w.Seq ||
				len(w2.Batch) != len(w.Batch) || len(w2.Labels) != len(w.Labels) ||
				len(w2.Routes) != len(w.Routes) || !bytes.Equal(w2.Model, w.Model) {
				t.Fatalf("round trip changed the frame: %+v vs %+v", w, w2)
			}
		case errors.Is(err, ErrWireVersion):
			// Version rejections fire for every other version byte.
			if supported {
				t.Fatalf("v%d rejected as a version mismatch: %v", version, err)
			}
		case errors.Is(err, ErrBadMessage):
			// Undecodable body on the spoken version.
			if !supported {
				t.Fatalf("v%d answered %v, want ErrWireVersion", version, err)
			}
		default:
			t.Fatalf("unexpected error class: %v", err)
		}
	})
}
