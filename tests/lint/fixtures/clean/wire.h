// Clean fixture, never compiled: every envelope member is coded by hand in
// both directions.

struct DemoMessage {
  int alpha = 0;
  Shade shade = Shade::kLight;
};
