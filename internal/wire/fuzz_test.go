package wire

import (
	"bytes"
	"testing"

	"groupkey/internal/keycrypt"
)

// FuzzReadFrame feeds arbitrary bytes to the frame reader: it must never
// panic or over-allocate, and any frame it accepts must round-trip.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteFrame(&seed, MsgJoin, JoinRequest{LossRate: 0.1}.Encode())
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, byte(MsgLeave)})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, typ, payload); err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		typ2, payload2, err := ReadFrame(&out)
		if err != nil || typ2 != typ || !bytes.Equal(payload2, payload) {
			t.Fatalf("frame round trip diverged: %v", err)
		}
	})
}

// FuzzReadFrameGroup feeds arbitrary bytes to the group-aware frame
// reader: it must never panic, must map legacy frames to group 0, and any
// accepted frame must survive a group-addressed re-encode.
func FuzzReadFrameGroup(f *testing.F) {
	var v1, v2 bytes.Buffer
	_ = WriteFrame(&v1, MsgJoin, JoinRequest{LossRate: 0.1}.Encode())
	_ = WriteFrameGroup(&v2, 7, MsgResume, ResumeRequest{Member: 3, Proof: []byte{1}}.Encode())
	f.Add(v1.Bytes())
	f.Add(v2.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 5, byte(MsgLeave) | 0x80, 0, 0, 0, 9})
	f.Add([]byte{0, 0, 0, 2, 0x80, 1}) // flagged but too short for a group

	f.Fuzz(func(t *testing.T, data []byte) {
		g, typ, payload, err := ReadFrameGroup(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFrameGroup(&out, g, typ, payload); err != nil {
			t.Fatalf("accepted frame failed to re-encode group-addressed: %v", err)
		}
		g2, typ2, payload2, err := ReadFrameGroup(&out)
		if err != nil || g2 != g || typ2 != typ || !bytes.Equal(payload2, payload) {
			t.Fatalf("group frame round trip diverged: %v", err)
		}
		// The legacy reader must agree on type and payload regardless of
		// header version — it only discards the address.
		typ3, payload3, err := ReadFrame(bytes.NewReader(data))
		if err != nil || typ3 != typ || !bytes.Equal(payload3, payload) {
			t.Fatalf("legacy and group readers diverged: %v", err)
		}
	})
}

// FuzzDecodeWelcome exercises the registration decoder.
func FuzzDecodeWelcome(f *testing.F) {
	f.Add(Welcome{Member: 1, Key: keycrypt.Random(2, 3)}.Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := DecodeWelcome(data)
		if err != nil {
			return
		}
		if !bytes.Equal(w.Encode(), data) {
			t.Fatal("welcome round trip diverged")
		}
	})
}
