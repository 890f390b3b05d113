/**
 * @file
 * Minimal streaming JSON emitter for the bench result files.
 *
 * The benches write deterministic BENCH_<name>.json result files,
 * which must be byte-identical across runs and thread counts.
 * They need only a tiny subset of JSON — objects, arrays, strings,
 * numbers, booleans, null — emitted in insertion order with stable
 * formatting, which is exactly what this writer does:
 *
 *  - doubles print with max_digits10 (17 significant digits), so
 *    every distinct double has a distinct, reproducible spelling
 *    that parses back to the same value;
 *  - non-finite doubles (JSON has no NaN/Inf) become null;
 *  - two-space indentation, keys in the order written.
 */

#ifndef DAMQ_COMMON_JSON_WRITER_HH
#define DAMQ_COMMON_JSON_WRITER_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace damq {

/**
 * The JSON spelling of @p number: max_digits10 significant digits,
 * "null" for NaN/infinities.  Shared with the CSV writer's callers
 * so both sinks spell every double identically.
 */
std::string formatJsonNumber(double number);

/** Streams one JSON document to an ostream. */
class JsonWriter
{
  public:
    /** Write to @p out; the stream must outlive the writer. */
    explicit JsonWriter(std::ostream &out);

    /** Open the root or a nested object. */
    void beginObject();

    /** Close the innermost object. */
    void endObject();

    /** Open the root or a nested array. */
    void beginArray();

    /** Close the innermost array. */
    void endArray();

    /** Emit a key inside an object (must precede its value). */
    void key(std::string_view name);

    /** Emit a string value. */
    void value(std::string_view text);
    /** Emit a string value (disambiguates char literals). */
    void value(const char *text);
    /** Emit a double value; NaN and infinities emit null. */
    void value(double number);
    /** Emit an unsigned integer value. */
    void value(std::uint64_t number);
    /** Emit a signed integer value. */
    void value(std::int64_t number);
    /** Emit an int value (disambiguates integer literals). */
    void value(int number);
    /** Emit a boolean value. */
    void value(bool flag);
    /** Emit a null value. */
    void null();

    /**
     * Emit @p text verbatim as a value.  The caller guarantees it is
     * one complete, valid JSON value (the packet tracer uses this to
     * splice preformatted `args` objects into trace events).
     */
    void rawValue(std::string_view text);

    /** key() + value() in one call. */
    template <typename V>
    void field(std::string_view name, V &&v)
    {
        key(name);
        value(std::forward<V>(v));
    }

    /** Finish the document with a trailing newline (idempotent). */
    void finish();

  private:
    enum class Scope { Object, Array };

    /** Pre-value bookkeeping: commas, indentation, key checks. */
    void beforeValue();

    /** Newline plus current indentation. */
    void newline();

    /** Emit @p text JSON-escaped and quoted. */
    void quoted(std::string_view text);

    std::ostream &out;
    std::vector<Scope> stack;
    std::vector<bool> hasItems; ///< per scope: wrote an item yet?
    bool keyPending = false;
    bool finished = false;
};

} // namespace damq

#endif // DAMQ_COMMON_JSON_WRITER_HH
