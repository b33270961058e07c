package store

// flushHeld mirrors the real Batcher.Flush: the write mutex
// intentionally serializes tier writes, and the suppression records
// the reviewed reasoning.
func (b *Batcher) flushHeld(keys []string) error {
	b.writeMu.Lock()
	defer b.writeMu.Unlock()
	for _, k := range keys {
		//popslint:ignore locksafe writeMu exists to serialize tier writes; nothing else ever waits on it
		if err := b.under.Put(k, b.pending[k]); err != nil {
			return err
		}
	}
	return nil
}

// missingReason keeps the finding and reports the bare directive.
func (b *Batcher) missingReason(key string, v []byte) error {
	b.writeMu.Lock()
	defer b.writeMu.Unlock()
	//popslint:ignore locksafe // want `requires a justification`
	return b.under.Put(key, v) // want `store call Put while holding b\.writeMu`
}
