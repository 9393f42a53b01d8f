// Fixture codec, never compiled: no envelopes to code.
