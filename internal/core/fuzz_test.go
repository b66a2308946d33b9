package core

import (
	"testing"

	"plwg/internal/wire/wiretest"
)

// FuzzCoreCodec feeds arbitrary bytes to the decoders of every
// light-weight group message, and of the vsync messages that carry them
// (see wiretest.FuzzCodec for the contract).
func FuzzCoreCodec(f *testing.F) { wiretest.FuzzCodec(f) }
