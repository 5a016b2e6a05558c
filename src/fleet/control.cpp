#include "fleet/control.hpp"

#include <filesystem>
#include <fstream>
#include <system_error>

#include "util/wire.hpp"

namespace gb::fleet {

control_read read_control(const std::string& path) {
    control_read result;
    const std::string bytes = read_file(path).value_or("");
    result.bytes = bytes.size();
    if (bytes.empty()) {
        return result;
    }
    if (bytes.size() > max_control_bytes) {
        result.status = control_read::state::oversized;
        return result;
    }
    const std::size_t newline = bytes.find('\n');
    if (newline == std::string::npos) {
        result.status = control_read::state::partial;
        return result;
    }
    result.status = control_read::state::complete;
    result.command = bytes.substr(0, newline);
    return result;
}

bool write_control(const std::string& path, std::string_view command) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
        return false;
    }
    std::string framed(command);
    framed += '\n';
    out << framed;
    out.flush();
    return out.good();
}

bool ack_control(const std::string& path) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    return out.is_open();
}

int ack_backoff_ms(const ack_wait_config& config, int attempt) {
    if (config.backoff_base_ms <= 0) {
        return 0;
    }
    long long delay = config.backoff_base_ms;
    for (int k = 0; k < attempt && delay < config.backoff_cap_ms; ++k) {
        delay *= 2;
    }
    if (delay > config.backoff_cap_ms) {
        delay = config.backoff_cap_ms;
    }
    return static_cast<int>(delay);
}

bool await_control_ack(const std::string& path,
                       const ack_wait_config& config,
                       const std::function<void(int delay_ms)>& sleep_fn) {
    const auto acked = [&path] {
        std::error_code ec;
        if (!std::filesystem::exists(path, ec)) {
            return true; // daemon may ack by removing the file
        }
        const auto size = std::filesystem::file_size(path, ec);
        return !ec && size == 0;
    };
    if (acked()) {
        return true;
    }
    for (int attempt = 0; attempt < config.retries; ++attempt) {
        if (sleep_fn) {
            sleep_fn(ack_backoff_ms(config, attempt));
        }
        if (acked()) {
            return true;
        }
    }
    return false;
}

} // namespace gb::fleet
