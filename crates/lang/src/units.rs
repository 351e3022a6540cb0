//! Byte-size and rate literal suffixes.
//!
//! The paper writes sizes as `256M` and rates in bytes per second; suffixes
//! are the usual binary multipliers (K = 2^10, M = 2^20, G = 2^30, T = 2^40).

/// Returns the multiplier for a size-suffix character, if it is one.
pub fn suffix_multiplier(c: char) -> Option<f64> {
    match c {
        'K' | 'k' => Some(1024.0),
        'M' | 'm' => Some(1024.0 * 1024.0),
        'G' | 'g' => Some(1024.0 * 1024.0 * 1024.0),
        'T' => Some(1024.0 * 1024.0 * 1024.0 * 1024.0),
        _ => None,
    }
}

/// Formats a byte count with the largest suffix that divides it exactly,
/// falling back to a plain number.
///
/// # Examples
///
/// ```
/// assert_eq!(cloudtalk_lang::units::format_bytes(256.0 * 1024.0 * 1024.0), "256M");
/// assert_eq!(cloudtalk_lang::units::format_bytes(1000.0), "1000");
/// ```
pub fn format_bytes(value: f64) -> String {
    const SUFFIXES: [(f64, char); 4] = [
        (1024.0 * 1024.0 * 1024.0 * 1024.0, 'T'),
        (1024.0 * 1024.0 * 1024.0, 'G'),
        (1024.0 * 1024.0, 'M'),
        (1024.0, 'K'),
    ];
    if value.fract() == 0.0 && value != 0.0 {
        for (mult, suffix) in SUFFIXES {
            let scaled = value / mult;
            if scaled.fract() == 0.0 && scaled >= 1.0 {
                return format!("{}{}", scaled, suffix);
            }
        }
    }
    format_number(value)
}

/// Formats a number exactly, without scientific notation for typical values.
pub(crate) fn format_number(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

/// Convenience constants for common sizes, in bytes.
pub mod sizes {
    /// One mebibyte.
    pub const MB: f64 = 1024.0 * 1024.0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suffixes_scale_binary() {
        assert_eq!(suffix_multiplier('K'), Some(1024.0));
        assert_eq!(suffix_multiplier('m'), Some(1048576.0));
        assert_eq!(suffix_multiplier('G'), Some(1073741824.0));
        assert_eq!(suffix_multiplier('x'), None);
    }

    #[test]
    fn format_picks_largest_exact_suffix() {
        assert_eq!(format_bytes(1024.0 * sizes::MB), "1G");
        assert_eq!(format_bytes(512.0 * sizes::MB), "512M");
        // 1536 is not an integral multiple of any suffix, so it stays plain.
        assert_eq!(format_bytes(1536.0), "1536");
        assert_eq!(format_bytes(0.0), "0");
    }

    #[test]
    fn format_number_avoids_exponents() {
        assert_eq!(format_number(100000000.0), "100000000");
        assert_eq!(format_number(0.5), "0.5");
    }

    #[test]
    fn round_trip_via_multiplier() {
        let bytes = 256.0 * sizes::MB;
        let formatted = format_bytes(bytes);
        assert_eq!(formatted, "256M");
        let (num, suffix) = formatted.split_at(formatted.len() - 1);
        let parsed: f64 = num.parse().unwrap();
        assert_eq!(
            parsed * suffix_multiplier(suffix.chars().next().unwrap()).unwrap(),
            bytes
        );
    }
}
