#include "spans.h"

#include <fstream>

#include "common.h"
#include "core/json.h"

namespace pb {

SpanLog::SpanLog() : origin_(nowSec()) {}

double
SpanLog::nowUs() const
{
    return toUs(nowSec());
}

int
SpanLog::open(std::string name, std::int64_t id)
{
    Span s;
    s.name = std::move(name);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.id = id;
    s.startUs = nowUs();
    spans_.push_back(std::move(s));
    async_.push_back(false);
    int index = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(index);
    return index;
}

void
SpanLog::close(int index)
{
    spans_[static_cast<std::size_t>(index)].endUs = nowUs();
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

void
SpanLog::add(std::string name, double startUs, double endUs, int parent,
             std::int64_t id)
{
    spans_.push_back(Span{std::move(name), startUs, endUs, parent, id});
    async_.push_back(true);
}

std::map<std::string, double>
SpanLog::selfSecByName() const
{
    std::vector<double> childUs(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        if (!async_[i] && s.parent >= 0)
            childUs[static_cast<std::size_t>(s.parent)] +=
                s.endUs - s.startUs;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); i++) {
        if (async_[i])
            continue;
        const Span &s = spans_[i];
        out[s.name] += (s.endUs - s.startUs - childUs[i]) / 1e6;
    }
    return out;
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        rfh::JsonWriter w;
        w.beginObject();
        w.key("name").value(s.name);
        w.key("cat").value("perfbench");
        w.key("ph").value("X");
        w.key("pid").value(1);
        w.key("tid").value(async_[i] ? 2 : 1);
        w.key("ts").value(s.startUs);
        w.key("dur").value(s.endUs - s.startUs);
        w.key("args");
        w.beginObject();
        w.key("span").value(static_cast<int>(i));
        w.key("parent").value(s.parent);
        w.key("id").value(static_cast<double>(s.id));
        w.endObject();
        w.endObject();
        out << (i ? "," : "") << w.str();
    }
    out << "],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(out);
}

} // namespace pb
