//! Hand-written answers the benchmark checks the engine against. Like
//! the calibration kernel, this module uses only `std` and shares no
//! code with the engine it checks.

use std::collections::{HashMap, HashSet};

/// A binary fact as two strings.
pub type Pair = (String, String);

/// §3.1's mutually recursive `ahead`/`above` over `infront`
/// `(front, back)` and `ontop` `(top, base)` facts. Returns `ahead` as
/// `(head, tail)` pairs.
///
/// ```text
/// ahead = infront ∪ infront.back ⋈ ahead.head ∪ infront.back ⋈ above.high
/// above = ontop   ∪ ontop.base ⋈ above.high   ∪ ontop.base ⋈ ahead.head
/// ```
///
/// Both derived relations extend a fact `(x, y)` of either one the same
/// way — by a predecessor `p` of `x` in `infront` (giving `ahead(p, y)`)
/// or in `ontop` (giving `above(p, y)`) — so one semi-naive worklist
/// serves both.
pub fn ahead_mutual(infront: &[Pair], ontop: &[Pair]) -> HashSet<Pair> {
    let mut ids: HashMap<&str, u32> = HashMap::new();
    let mut names: Vec<&str> = Vec::new();
    for (a, b) in infront.iter().chain(ontop) {
        for s in [a.as_str(), b.as_str()] {
            if !ids.contains_key(s) {
                ids.insert(s, names.len() as u32);
                names.push(s);
            }
        }
    }
    let n = names.len();
    let mut infront_pred: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut ontop_pred: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (f, b) in infront {
        infront_pred[ids[b.as_str()] as usize].push(ids[f.as_str()]);
    }
    for (t, b) in ontop {
        ontop_pred[ids[b.as_str()] as usize].push(ids[t.as_str()]);
    }
    let mut ahead: HashSet<(u32, u32)> = HashSet::new();
    let mut above: HashSet<(u32, u32)> = HashSet::new();
    let mut work: Vec<(u32, u32)> = Vec::new();
    for (f, b) in infront {
        let p = (ids[f.as_str()], ids[b.as_str()]);
        if ahead.insert(p) {
            work.push(p);
        }
    }
    for (t, b) in ontop {
        let p = (ids[t.as_str()], ids[b.as_str()]);
        if above.insert(p) {
            work.push(p);
        }
    }
    while let Some((x, y)) = work.pop() {
        for &p in &infront_pred[x as usize] {
            if ahead.insert((p, y)) {
                work.push((p, y));
            }
        }
        for &p in &ontop_pred[x as usize] {
            if above.insert((p, y)) {
                work.push((p, y));
            }
        }
    }
    ahead
        .into_iter()
        .map(|(h, t)| (names[h as usize].to_string(), names[t as usize].to_string()))
        .collect()
}

/// The visibility query over `infront` `(front, back)` and `ontop`
/// `(top, base)`: edges whose front carries a stacked item and whose
/// back carries none.
pub fn visibility(infront: &[Pair], ontop: &[Pair]) -> HashSet<Pair> {
    let stacked: HashSet<&str> = ontop.iter().map(|(_, base)| base.as_str()).collect();
    infront
        .iter()
        .filter(|(f, b)| stacked.contains(f.as_str()) && !stacked.contains(b.as_str()))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(xs: &[(&str, &str)]) -> Vec<Pair> {
        xs.iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn mutual_closure_crosses_between_relations() {
        // c in front of a, a in front of item i, and i stands on b: `ahead`
        // reaches b only through `above(i, b)`.
        let infront = pairs(&[("a", "i"), ("c", "a")]);
        let ontop = pairs(&[("i", "b")]);
        let ahead = ahead_mutual(&infront, &ontop);
        let expect: HashSet<Pair> =
            pairs(&[("a", "i"), ("c", "a"), ("c", "i"), ("a", "b"), ("c", "b")])
                .into_iter()
                .collect();
        assert_eq!(ahead, expect);
        // Items stacked on a front object extend `above`, never `ahead`.
        let ahead = ahead_mutual(&pairs(&[("a", "b")]), &pairs(&[("i", "x"), ("x", "a")]));
        assert!(ahead.contains(&("a".to_string(), "b".to_string())));
        assert_eq!(ahead.len(), 1);
    }

    #[test]
    fn visibility_needs_stacked_front_and_bare_back() {
        let infront = pairs(&[("a", "b"), ("b", "c"), ("c", "d")]);
        let ontop = pairs(&[("i", "a"), ("j", "c")]);
        let v = visibility(&infront, &ontop);
        let expect: HashSet<Pair> = pairs(&[("a", "b"), ("c", "d")]).into_iter().collect();
        assert_eq!(v, expect);
    }
}
