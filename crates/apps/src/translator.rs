//! The Translator case study (paper Section 5.1): a word-translation
//! service built for one request at a time, batched by the client without
//! any server change. Words travel as serializable records, exercising
//! by-copy semantics for application types.

use std::collections::HashMap;
use std::sync::Arc;

use brmi::policy::ContinuePolicy;
use brmi::{remote_interface, Batch, BatchFuture};
use brmi_rmi::{Connection, RemoteRef};
use brmi_wire::value::ValueIn;
use brmi_wire::{FromValue, RemoteError, RemoteErrorKind, Repr, ToValue, Value};

/// A word tagged with its language — the paper's serializable `Word`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Word {
    /// The text.
    pub text: String,
    /// ISO-ish language code, e.g. `"en"`.
    pub lang: String,
}

impl Word {
    /// Convenience constructor.
    pub fn new(text: &str, lang: &str) -> Self {
        Word {
            text: text.to_owned(),
            lang: lang.to_owned(),
        }
    }
}

impl ToValue for Word {
    fn to_value(&self) -> Value {
        self.clone().into_value()
    }

    /// Moves both strings into the record; the field names are static.
    fn into_value(self) -> Value {
        Value::Record(vec![
            ("text".into(), Value::Str(self.text)),
            ("lang".into(), Value::Str(self.lang)),
        ])
    }
}

impl FromValue for Word {
    fn from_value(value: Value) -> Result<Self, RemoteError> {
        Word::from_value_in(&value)
    }

    /// Copies `text` and `lang` straight out of the record, whether it is a
    /// future's stored value or a view of the request frame.
    fn from_value_in<R: Repr>(value: &ValueIn<R>) -> Result<Self, RemoteError> {
        let ValueIn::Record(fields) = value else {
            return Err(RemoteError::new(
                RemoteErrorKind::BadArguments,
                format!("expected record, got {}", value.type_name()),
            ));
        };
        let mut text = None;
        let mut lang = None;
        for (name, value) in fields {
            match name.as_ref() {
                "text" => text = Some(String::from_value_in(value)?),
                "lang" => lang = Some(String::from_value_in(value)?),
                _ => {}
            }
        }
        match (text, lang) {
            (Some(text), Some(lang)) => Ok(Word { text, lang }),
            _ => Err(RemoteError::new(
                RemoteErrorKind::BadArguments,
                "word record requires text and lang fields",
            )),
        }
    }
}

remote_interface! {
    /// The translation service (the paper's `Translator`).
    pub interface Translator {
        /// Translates one word; throws `UnknownWordException` for words
        /// outside the dictionary.
        fn translate(word: Word) -> Word;
        /// The language this service translates into.
        fn target_language() -> String;
    }
}

/// A dictionary-backed translator.
pub struct DictionaryTranslator {
    target: String,
    entries: HashMap<String, String>,
}

impl DictionaryTranslator {
    /// An English→French sample dictionary.
    pub fn english_to_french() -> Arc<Self> {
        let entries = [
            ("hello", "bonjour"),
            ("world", "monde"),
            ("cat", "chat"),
            ("dog", "chien"),
            ("file", "fichier"),
            ("server", "serveur"),
            ("network", "réseau"),
            ("latency", "latence"),
            ("batch", "lot"),
            ("future", "futur"),
        ]
        .into_iter()
        .map(|(en, fr)| (en.to_owned(), fr.to_owned()))
        .collect();
        Arc::new(DictionaryTranslator {
            target: "fr".to_owned(),
            entries,
        })
    }

    /// Every word the dictionary knows, for workload generation.
    pub fn known_words(&self) -> Vec<String> {
        let mut words: Vec<String> = self.entries.keys().cloned().collect();
        words.sort();
        words
    }
}

impl Translator for DictionaryTranslator {
    fn translate(&self, word: Word) -> Result<Word, RemoteError> {
        match self.entries.get(&word.text) {
            Some(translated) => Ok(Word {
                text: translated.clone(),
                lang: self.target.clone(),
            }),
            None => Err(RemoteError::application(
                "UnknownWordException",
                format!("no translation for {:?}", word.text),
            )),
        }
    }

    fn target_language(&self) -> Result<String, RemoteError> {
        Ok(self.target.clone())
    }
}

/// RMI client: one round trip per word.
///
/// # Errors
///
/// Never fails as a whole; per-word failures are reported in-line, to
/// match the batched client's behaviour.
pub fn rmi_translate_all(
    translator: &TranslatorStub,
    words: &[Word],
) -> Result<Vec<Result<Word, String>>, RemoteError> {
    Ok(words
        .iter()
        .map(|word| {
            translator
                .translate(word.clone())
                .map_err(|err| err.exception().to_owned())
        })
        .collect())
}

/// BRMI client (Section 5.1): the batch size is decided *at runtime* from
/// the input length — a dynamic array of futures, one round trip total.
///
/// # Errors
///
/// Communication failures at `flush`.
pub fn brmi_translate_all(
    conn: &Connection,
    translator_ref: &RemoteRef,
    words: &[Word],
) -> Result<Vec<Result<Word, String>>, RemoteError> {
    let batch = Batch::new(conn.clone(), ContinuePolicy);
    let translator = BTranslator::new(&batch, translator_ref);
    let futures: Vec<BatchFuture<Word>> = words
        .iter()
        .map(|word| translator.translate(word.clone()))
        .collect();
    batch.flush()?;
    Ok(futures
        .into_iter()
        .map(|future| future.get().map_err(|err| err.exception().to_owned()))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::AppRig;

    fn rig() -> (AppRig, Arc<DictionaryTranslator>) {
        let translator = DictionaryTranslator::english_to_french();
        let rig = AppRig::serve(
            "translator",
            TranslatorSkeleton::remote_arc(translator.clone()),
        );
        (rig, translator)
    }

    #[test]
    fn word_round_trips_as_record() {
        let word = Word::new("hello", "en");
        assert_eq!(Word::from_value(word.to_value()).unwrap(), word);
        let err = Word::from_value(Value::Record(vec![])).unwrap_err();
        assert_eq!(err.kind(), RemoteErrorKind::BadArguments);
    }

    #[test]
    fn word_moves_its_strings_into_the_record() {
        let word = Word::new("hello", "en");
        let text = word.text.as_ptr();
        let Value::Record(fields) = word.into_value() else {
            panic!("a word is a record");
        };
        assert!(matches!(fields[0].0, std::borrow::Cow::Borrowed("text")));
        assert!(matches!(&fields[0].1, Value::Str(s) if s.as_ptr() == text));
    }

    proptest::proptest! {
        /// `Word::from_value_in` on the owned value and on its borrowed
        /// view agrees with `Word::from_value` on a copy: the same word, or
        /// errors of the same kind.
        #[test]
        fn word_conversions_agree_borrowed_and_owned(
            fields in proptest::collection::vec((0usize..3, 0usize..3, "[a-z]{0,6}"), 0..4),
            record in proptest::prelude::any::<bool>(),
        ) {
            const NAMES: [&str; 3] = ["text", "lang", "other"];
            let value = if record {
                Value::Record(
                    fields
                        .into_iter()
                        .map(|(name, kind, s)| {
                            let value = match kind {
                                0 => Value::Str(s),
                                1 => Value::I32(s.len() as i32),
                                _ => Value::Null,
                            };
                            (NAMES[name].into(), value)
                        })
                        .collect(),
                )
            } else {
                Value::List(vec![])
            };
            let kind = |r: Result<Word, RemoteError>| r.map_err(|e| e.kind());
            let taken = kind(Word::from_value(value.clone()));
            proptest::prop_assert_eq!(kind(Word::from_value_in(&value)), taken.clone());
            proptest::prop_assert_eq!(kind(Word::from_value_in(&value.to_ref())), taken);
        }
    }

    #[test]
    fn translations_agree_between_rmi_and_brmi() {
        let (rig, _t) = rig();
        let words: Vec<Word> = ["hello", "world", "xyzzy", "batch"]
            .iter()
            .map(|w| Word::new(w, "en"))
            .collect();
        let rmi = rmi_translate_all(&TranslatorStub::new(rig.root.clone()), &words).unwrap();
        let brmi = brmi_translate_all(&rig.conn, &rig.root, &words).unwrap();
        assert_eq!(rmi, brmi);
        assert_eq!(rmi[0], Ok(Word::new("bonjour", "fr")));
        assert_eq!(rmi[2], Err("UnknownWordException".to_owned()));
    }

    #[test]
    fn batch_size_follows_input_length() {
        let (rig, translator) = rig();
        for n in [0usize, 1, 5, 10] {
            let words: Vec<Word> = translator
                .known_words()
                .into_iter()
                .cycle()
                .take(n)
                .map(|w| Word::new(&w, "en"))
                .collect();
            rig.stats.reset();
            let out = brmi_translate_all(&rig.conn, &rig.root, &words).unwrap();
            assert_eq!(out.len(), n);
            assert_eq!(rig.stats.requests(), u64::from(n > 0));
        }
    }

    #[test]
    fn rmi_cost_grows_linearly() {
        let (rig, _t) = rig();
        let words: Vec<Word> = (0..7).map(|_| Word::new("cat", "en")).collect();
        rig.stats.reset();
        rmi_translate_all(&TranslatorStub::new(rig.root.clone()), &words).unwrap();
        assert_eq!(rig.stats.requests(), 7);
    }
}
