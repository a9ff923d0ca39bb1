package snapshot

import "repro/internal/snapshot/codec"

// HeaderSize reads an image's header and returns the cores and the buffer
// and sink depths it declares, so FuzzDecode can skip an image too large to
// build before it decodes the rest.
func HeaderSize(data []byte) (cores, bufferDepth, sinkDepth int, err error) {
	h, err := readHeader(codec.NewDecoder(data))
	return h.width * h.height * h.concentration, h.bufferDepth, h.sinkDepth, err
}
