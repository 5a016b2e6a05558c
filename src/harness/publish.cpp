#include "harness/publish.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>

#include "harness/chaos/chaos.hpp"

namespace gb {

bool publish_atomic(const std::string& path, std::string_view bytes,
                    chaos_plan* chaos) {
    // rename(2) is atomic on POSIX, so a reader polling `path` sees either
    // the previous file or this one, never a prefix.  One fixed temp name
    // suffices: every published file has exactly one writer.  The temp is
    // removed only on an I/O failure -- a chaos kill must leave its torn
    // temp on disk, like a real crash would.
    const std::string temp = path + ".tmp";
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) {
        return false;
    }
    if (chaos != nullptr) {
        if (const auto tear = chaos->on_torn_write(chaos_site::snapshot_temp,
                                                    bytes.size())) {
            out << bytes.substr(0, static_cast<std::size_t>(tear->keep));
            out.flush();
            chaos->kill(tear->site);
        }
    }
    out << bytes;
    out.close();
    if (!out) {
        std::remove(temp.c_str());
        return false;
    }
    if (chaos != nullptr && chaos->on_snapshot_rename()) {
        chaos->kill(chaos_site::snapshot_rename);
    }
    if (std::rename(temp.c_str(), path.c_str()) != 0) {
        std::remove(temp.c_str());
        return false;
    }
    return true;
}

bool publish_artifact(std::string_view tool, const std::string& path,
                      std::string_view bytes) {
    if (publish_atomic(path, bytes)) {
        return true;
    }
    std::cerr << tool << ": cannot write " << path << '\n';
    return false;
}

} // namespace gb
