// Known-bad field-coverage fixture, never compiled: the envelope struct is
// fully covered by the codec, but DemoOptions (see options.h) drops a field.

struct DemoMessage {
  int alpha = 0;
  int beta = 0;
};
