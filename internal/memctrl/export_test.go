package memctrl

// CoWFrameBase exposes the first reserved copy-on-write frame to the
// package's external tests.
const CoWFrameBase = cowFrameBase

// Frames returns how many regular frames the mapper has allocated and
// how many copy-on-write frames it has reserved.
func (m *Mapper) Frames() (regular, reserved uint64) { return m.nextPhys, m.cowNext }
