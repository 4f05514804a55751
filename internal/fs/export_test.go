package fs

// Truncate sets the size of the file at path, dropping blocks past the
// new end.
func (f *FS) Truncate(path string, size int64) error {
	node, err := f.resolveFile(path)
	if err != nil {
		return err
	}
	return f.TruncateInode(node, size)
}

func encodeState(st snapshotState) []byte { return appendState(nil, st) }
