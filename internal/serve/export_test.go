package serve

// Parked reports how many Lease calls are parked on the coordinator, so a
// test can wait for a call to be parked instead of sleeping and hoping.
func (c *Coordinator) Parked() int { return int(c.parked.Load()) }
