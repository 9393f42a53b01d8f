// Fixture envelope header, never compiled: no envelope structs here.
