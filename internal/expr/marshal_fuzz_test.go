package expr

import (
	"testing"

	"csq/internal/types"
)

// nestedNots encodes an expression depth levels deep: depth-1 NOTs over one
// constant.
func nestedNots(depth int) []byte {
	leaf, _ := Marshal(NewConst(types.NewBool(true)))
	b := make([]byte, 0, 3*depth+len(leaf))
	for i := 1; i < depth; i++ {
		b = append(b, tagUnary, byte(OpNot), byte(types.KindBool))
	}
	return append(b, leaf...)
}

// TestUnmarshalDepthBound: an expression MaxDepth levels deep decodes, one
// level deeper is an error, and so is a multi-MiB nest that would otherwise
// recurse the decoder off the end of its stack.
func TestUnmarshalDepthBound(t *testing.T) {
	if _, err := Unmarshal(nestedNots(MaxDepth)); err != nil {
		t.Fatalf("an expression %d levels deep: %v", MaxDepth, err)
	}
	if _, err := Unmarshal(nestedNots(MaxDepth + 1)); err == nil {
		t.Fatalf("an expression %d levels deep decoded", MaxDepth+1)
	}
	if _, err := Unmarshal(nestedNots(3 << 20)); err == nil {
		t.Fatalf("a 9 MiB nest of NOTs decoded")
	}
}

// FuzzUnmarshal feeds arbitrary bytes to Unmarshal, as a requester's Filter
// or Pushable field or a server's setup request would. It must never panic,
// and an accepted expression marshals to bytes that decode to the same
// expression. Seeds live in testdata/fuzz/FuzzUnmarshal.
func FuzzUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Unmarshal(data)
		if err != nil {
			return
		}
		enc, err := Marshal(e)
		if err != nil {
			t.Fatalf("decoded %s does not marshal: %v", e, err)
		}
		again, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("re-decode of %s: %v", e, err)
		}
		if again.String() != e.String() {
			t.Fatalf("round trip turned %s into %s", e, again)
		}
	})
}
