package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := []struct {
		t MsgType
		p []byte
	}{
		{MsgJoin, []byte{1, 2, 3}},
		{MsgLeave, nil},
		{MsgData, bytes.Repeat([]byte{0xab}, 1000)},
	}
	for _, pl := range payloads {
		if err := WriteFrame(&buf, pl.t, pl.p); err != nil {
			t.Fatalf("WriteFrame(%v): %v", pl.t, err)
		}
	}
	for _, pl := range payloads {
		gt, gp, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if gt != pl.t || !bytes.Equal(gp, pl.p) {
			t.Fatalf("frame mismatch: got (%v, %d bytes), want (%v, %d bytes)", gt, len(gp), pl.t, len(pl.p))
		}
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("exhausted reader: err=%v, want io.EOF", err)
	}
}

func TestFrameSizeLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgData, make([]byte, MaxFrameSize+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize write: err=%v", err)
	}
	// A forged oversize header must be rejected before allocation.
	forged := []byte{0xff, 0xff, 0xff, 0xff, byte(MsgData)}
	if _, _, err := ReadFrame(bytes.NewReader(forged)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize read: err=%v", err)
	}
	zero := []byte{0, 0, 0, 0}
	if _, _, err := ReadFrame(bytes.NewReader(zero)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("zero-length frame: err=%v", err)
	}
}

func TestJoinRequestRoundTrip(t *testing.T) {
	tests := []JoinRequest{
		{LossRate: 0.02, LongLived: false},
		{LossRate: 0.2, LongLived: true},
		{LossRate: -1, LongLived: false},
	}
	for _, j := range tests {
		got, err := DecodeJoinRequest(j.Encode())
		if err != nil {
			t.Fatalf("DecodeJoinRequest: %v", err)
		}
		if got != j {
			t.Fatalf("round trip %+v -> %+v", j, got)
		}
	}
	if _, err := DecodeJoinRequest([]byte{1}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short join: err=%v", err)
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	w := Welcome{Member: 42, Key: keycrypt.Random(777, 3)}
	got, err := DecodeWelcome(w.Encode())
	if err != nil {
		t.Fatalf("DecodeWelcome: %v", err)
	}
	if got.Member != w.Member || !got.Key.Equal(w.Key) {
		t.Fatal("welcome round trip mismatch")
	}
	if _, err := DecodeWelcome([]byte{1, 2}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short welcome: err=%v", err)
	}
}

func TestRekeyRoundTrip(t *testing.T) {
	g := keycrypt.Generator{Rand: keycrypt.NewDeterministicReader(5)}
	var items []keytree.Item
	for i := 0; i < 10; i++ {
		payload, _ := g.New(keycrypt.KeyID(100+i), 1)
		wrapper, _ := g.New(keycrypt.KeyID(200+i), 2)
		w, err := keycrypt.Wrap(payload, wrapper, g.Rand)
		if err != nil {
			t.Fatalf("Wrap: %v", err)
		}
		items = append(items, keytree.Item{
			Wrapped: w,
			Kind:    keytree.ChildWrap,
			Level:   i % 4,
			// Routing deliberately set: it must NOT survive the wire.
			To:      3,
			Exclude: map[keytree.MemberID]bool{1: true},
		})
	}
	blob, err := EncodeRekey(9, items)
	if err != nil {
		t.Fatalf("EncodeRekey: %v", err)
	}
	if len(blob) != 12+len(items)*RekeyItemSize {
		t.Fatalf("blob is %d bytes, want %d", len(blob), 12+len(items)*RekeyItemSize)
	}
	if epoch, n := binary.BigEndian.Uint64(blob[0:8]), binary.BigEndian.Uint32(blob[8:12]); epoch != 9 || int(n) != len(items) {
		t.Fatalf("header epoch=%d count=%d, want 9/%d", epoch, n, len(items))
	}
	for i := range items {
		got, err := DecodeRekeyItem(blob[12+i*RekeyItemSize : 12+(i+1)*RekeyItemSize])
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if got.Wrapped != items[i].Wrapped || got.Kind != items[i].Kind || got.Level != items[i].Level {
			t.Fatalf("item %d mismatch", i)
		}
		if got.To != 0 || got.Exclude != nil {
			t.Fatal("routing metadata must not cross the wire")
		}
	}
}

func TestRetryAfterRoundTrip(t *testing.T) {
	for _, d := range []time.Duration{time.Millisecond, 250 * time.Millisecond, 3 * time.Second, time.Hour} {
		got, err := DecodeRetryAfter(EncodeRetryAfter(d))
		if err != nil {
			t.Fatalf("DecodeRetryAfter(%v): %v", d, err)
		}
		if got != d {
			t.Fatalf("retry-after %v round-tripped to %v", d, got)
		}
	}
	// Sub-millisecond hints round up rather than encoding an empty wait.
	if got, err := DecodeRetryAfter(EncodeRetryAfter(10 * time.Microsecond)); err != nil || got != time.Millisecond {
		t.Fatalf("sub-ms retry = %v, %v; want 1ms", got, err)
	}
}

func TestDecodeRetryAfterMalformed(t *testing.T) {
	for _, b := range [][]byte{nil, {1, 2, 3}, {1, 2, 3, 4, 5}, {0, 0, 0, 0}} {
		if _, err := DecodeRetryAfter(b); !errors.Is(err, ErrMalformed) {
			t.Fatalf("DecodeRetryAfter(%v): err=%v, want ErrMalformed", b, err)
		}
	}
}
