// Reads one of the two knobs the fixture README lists.
namespace lc {
long GetEnvInt(const char* name, long fallback);

long Knob() { return GetEnvInt("LC_FIXTURE_KNOB", 1); }
}  // namespace lc
