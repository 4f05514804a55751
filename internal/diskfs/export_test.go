package diskfs

// Exists reports whether the file exists.
func (f *FS) Exists(name string) bool {
	_, ok := f.names[name]
	return ok
}

// Size reports the file's size.
func (f *FS) Size(name string) (int64, error) {
	nd, err := f.lookup(name)
	if err != nil {
		return 0, err
	}
	return nd.size, nil
}

// BlockBytes reports the block size.
func (f *FS) BlockBytes() int { return int(f.bs) }

// FreeBlocks reports the free data blocks.
func (f *FS) FreeBlocks() int { return len(f.freeBlks) }
