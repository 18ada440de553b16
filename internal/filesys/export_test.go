package filesys

// Files returns the number of live files.
func (fs *FS) Files() int {
	n := 0
	for id := uint64(1); id < fs.nextID; id++ {
		if fs.slot(id).fs == fs {
			n++
		}
	}
	return n
}
